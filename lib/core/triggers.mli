(** Triggers (paper §6).

    Triggers are declared in classes and *activated* per object; an
    activation carries argument values and returns a trigger id usable for
    explicit deactivation. Kinds:

    - once-only (default): fires whenever its condition holds at the end of
      a transaction that touched the object (including the activating one),
      then deactivates;
    - [perpetual]: stays active; edge-triggered — fires when the condition
      *becomes* true across a transaction (the paper: "An active trigger
      fires when its condition becomes true"), which keeps self-touching
      actions from firing forever;
    - timed ([within t]): if the condition does not come true by the
      logical-clock deadline, the [timeout] action runs instead.

    A firing only schedules its action; actions run as their own
    transactions after the triggering one commits (weak coupling), so
    actions of aborted transactions never run — see
    {!Database.with_txn}.

    Each activation is one ['T'] record, keyed by its tid. The record
    names its declaration by the declaring class's id and the trigger's
    position among that class's own triggers, so it holds no names; the
    rest is the object, the arguments, an active flag and the deadline of
    a timed trigger. Decoding takes the names and [perpetual] from the
    catalog, so the activations in memory share the catalog's strings. *)

open Types

(** {1 Activation} *)

val activate : txn -> Ode_model.Oid.t -> string -> Ode_model.Value.t list -> int
(** Returns the trigger id. Raises a [User] {!Ode_util.Ode_error.Error} for
    an unknown trigger, arity mismatch, an argument that does not conform
    to its parameter's declared type, or a dead object. *)

val deactivate : txn -> int -> unit

val decl : db -> activation -> Ode_model.Schema.trigger option
(** The declaration an activation names (by declaring class id and
    position); [None] if the catalog lacks it. *)

(** {1 Commit pipeline (used by {!Txn})} *)

type decoded
(** A committing transaction's ['T'] puts, decoded once by {!evaluate}. *)

val evaluate : reads:(string, unit) Hashtbl.t -> txn -> firing list * decoded
(** Evaluate conditions for the committing transaction's touched objects;
    buffers bookkeeping writes (once-only deactivation, removal of
    activations on deleted objects) into the transaction. Also returns the
    activation of every ['T'] put the transaction then holds, decoded. The
    key of every record a condition reads is added to [reads]. *)

val sync_after_commit : ?decoded:decoded -> db -> (string * op) list -> unit
(** Fold a committed transaction's writes to ['T'] keys into the
    in-memory activation tables: after a local commit, where {!evaluate}
    has [decoded] its puts, and per shipped commit on a standby, which
    decodes each put once here. Other keys are skipped. *)

val expired : db -> activation list
(** Active timed activations whose deadline has passed (used by
    {!Database.advance_time}). *)

val load_all : db -> unit
(** Rebuild the in-memory activation tables from the store (open time). *)

(**/**)

val encode_activation : Ode_model.Otype.t list -> activation -> string
(** [encode_activation params a]: the record of [a], its arguments written
    by [params], the declared parameter types. Raises [Invalid_argument]
    when the counts differ or an argument lacks its type's shape. *)

val decode_activation : db -> string -> string -> activation
(** [decode_activation db key payload]: the tid from [key], the names
    and [perpetual] from [db]'s catalog, each argument read by its
    declared parameter type. Raises {!Ode_util.Codec.Corrupt}
    on a malformed record, on trailing bytes, and on a declaring class id
    or trigger position the catalog lacks. *)

val register : db -> activation -> unit
val unregister : db -> int -> unit
