(** Expression evaluator.

    Evaluation is parameterized by hooks so the same evaluator serves
    constraints, trigger conditions, [suchthat]/[by] clauses and method
    bodies: the database layer supplies object dereferencing (through the
    active transaction's write set), dynamic class tests and method
    dispatch.

    Null semantics (documented in README): field access through a null
    reference yields [Null]; [==]/[!=] treat [Null] as an ordinary value;
    ordered comparisons and arithmetic involving [Null] yield [false] /
    [Null] respectively, so a [suchthat] clause never aborts a scan because
    of a missing reference. *)

exception Error of string

type hooks = {
  get_field : Oid.t -> string -> Value.t option;
  (** Field of the current version, read through the active transaction. *)
  get_field_v : Oid.vref -> string -> Value.t option;
  class_of : Oid.t -> string option;
  is_subclass : sub:string -> super:string -> bool;
  call_method : Value.t -> string -> Value.t list -> Value.t;
  (** Dynamic dispatch on the receiver; raises {!Error} if unresolvable. *)
  builtin : string -> Value.t list -> Value.t option;
  (** Extra builtins supplied by the database layer (version navigation
      etc.); [None] means unknown. *)
}

val null_hooks : hooks
(** Hooks that fail on any object access: for evaluating closed
    expressions. *)

val eval :
  hooks -> vars:(string * Value.t) list -> this:Value.t option -> Ode_lang.Ast.expr -> Value.t
(** [compile] with no row variable, applied once. *)

val truthy : Value.t -> bool
(** [true] iff the value is [Bool true]; [Bool false] and [Null] are false;
    anything else raises {!Error} (conditions must be boolean). *)

(** {1 Compiled expressions}

    A query predicate, sort key or join key is evaluated once per
    candidate. [compile] turns it into a closure once per plan instead:
    constants are built, variables found and field names resolved before
    the first candidate, and a field of a row variable is read from the
    candidate's fetched record. {!eval} is a compilation applied once, so
    results, [Null] handling and {!Error}s are the same either way. *)

type 'r binding = {
  slot : int;  (** the variable's row in the frame the closure is applied to *)
  value : 'r -> Value.t;  (** the variable's value, as {!eval} would bind it *)
  field : string -> 'r -> Value.t;
      (** a reader of one field, resolved when the closure is built; it
          raises {!Error} on a row without that field *)
}

val compile :
  hooks ->
  rows:(string * 'r binding) list ->
  vars:(string * Value.t) list ->
  this:Value.t option ->
  Ode_lang.Ast.expr ->
  'r array ->
  Value.t
(** [compile hooks ~rows ~vars ~this e] is a closure [f] with
    [f frame = eval hooks ~vars:(bound @ vars) ~this e], where [bound]
    binds each row variable to its [value] of [frame.(slot)]. Row
    variables shadow [vars]. A field of a row variable is read by its
    binding's [field]; every other object access goes through [hooks].
    Compiling never raises: an error is raised when the closure reaches
    the failing subexpression. *)
