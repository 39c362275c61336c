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

    Each activation is one ['T'] record, keyed by its object and its tid,
    so an object's activations sit together under one key prefix. The
    store is their only copy: nothing is decoded ahead or kept in memory.
    Commit-time evaluation reads a touched object's records with one
    directory prefix lookup, skipped for an object the transaction
    created and for a class whose lineage declares no trigger;
    {!deactivate} by tid and {!expired} each make one pass over the ['T']
    range. The record names its declaration by the declaring class's id
    and the trigger's position among that class's own triggers, so it
    holds no names; the rest is the arguments, an active flag and the
    deadline of a timed trigger. Decoding takes the object and tid from
    the key, and the names and [perpetual] from the catalog. *)

open Types

(** {1 Activation} *)

val activate : txn -> Ode_model.Oid.t -> string -> Ode_model.Value.t list -> int
(** Returns the trigger id. Raises a [User] {!Ode_util.Ode_error.Error} for
    an unknown trigger, arity mismatch, an argument that does not conform
    to its parameter's declared type, or a dead object. *)

val deactivate : txn -> int -> unit
(** Marks the activation inactive. Finds it among the transaction's own
    writes, else by one pass over the committed ['T'] keys, and reads it
    as the transaction sees it. Raises a [User]
    {!Ode_util.Ode_error.Error} when there is no such activation. *)

val retire : txn -> activation -> unit
(** Writes the record of [a] back inactive. *)

val decl : db -> activation -> Ode_model.Schema.trigger option
(** The declaration an activation names (by declaring class id and
    position); [None] if the catalog lacks it. *)

(** {1 Commit pipeline (used by {!Txn})} *)

val evaluate : reads:(string, unit) Hashtbl.t -> txn -> firing list
(** Evaluate conditions for the committing transaction's touched objects;
    buffers bookkeeping writes (once-only deactivation, removal of every
    activation record of a deleted object) into the transaction. The key
    of every record a condition reads is added to [reads]. *)

val expired : db -> activation list
(** Active timed activations whose committed deadline has passed, by one
    pass over the ['T'] range (used by {!Database.advance_time}). *)

(**/**)

val encode_activation : Ode_model.Otype.t list -> activation -> string
(** [encode_activation params a]: the record of [a], its object and tid
    left to the key and its arguments written
    by [params], the declared parameter types. Raises [Invalid_argument]
    when the counts differ or an argument lacks its type's shape. *)

val decode_activation : db -> string -> string -> activation
(** [decode_activation db key payload]: the object and tid from [key], the
    names and [perpetual] from [db]'s catalog, each argument read by its
    declared parameter type. Raises {!Ode_util.Codec.Corrupt}
    on a malformed key or record, on trailing bytes, and on a declaring
    class id or trigger position the catalog lacks. *)
