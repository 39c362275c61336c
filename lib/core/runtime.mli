(** Binding the expression evaluator to a live database.

    Builds {!Ode_model.Eval.hooks} whose object access goes through the
    given transaction's write set, whose dynamic class tests consult the
    catalog, and whose method calls dispatch on the receiver's runtime
    class (most-derived definition wins). Also provides the database-level
    builtins: version navigation ([vref vnum vprev vnext current
    nversions]), the logical clock ([now()]), and named roots
    ([getroot]). *)

open Types

val hooks :
  ?reads:(string, unit) Hashtbl.t -> ?rows:Store.row list -> db -> txn option -> Ode_model.Eval.hooks
(** With [reads], every record the evaluation reads adds its key there: an
    object's ['H'] key for its fields, versions or class, a root's ['R']
    key. A commit checks these keys for conflicts beside its writes.
    [rows] are records already fetched (the current rows of the loops in
    scope): a field of one of their objects is read from the record while
    {!Store.current} holds. *)

val call_method :
  ?reads:(string, unit) Hashtbl.t ->
  db -> txn option -> Ode_model.Value.t -> string -> Ode_model.Value.t list -> Ode_model.Value.t
(** Raises {!Ode_model.Eval.Error} on unknown method / arity mismatch, and
    a [User] {!Ode_util.Ode_error.Error} when method calls nest deeper than
    a fixed bound (10,000), as a method that calls itself without end
    does. *)

val eval :
  ?reads:(string, unit) Hashtbl.t ->
  ?rows:Store.row list ->
  db ->
  txn option ->
  ?vars:(string * Ode_model.Value.t) list ->
  ?this:Ode_model.Value.t ->
  Ode_lang.Ast.expr ->
  Ode_model.Value.t
