(** Logical export: serialize a whole database as a surface-language script
    that recreates it (schema, clusters, indexes, objects with their full
    version histories, named roots and trigger activations).

    Object identity is not preserved across a dump/load — objects get fresh
    ids — but all references are rewritten consistently, so the loaded
    database is isomorphic to the source. Trigger ids are likewise
    reassigned. A reference to a deleted object is written as [null], after
    a [// note:] comment naming it.

    Known limitations: version numbers are renumbered contiguously on load,
    so pinned version references ([Vref]) are only faithful when no version
    was ever deleted from the referenced object; timed-trigger activations
    (with a pending deadline) are not exported.

    Must be called outside a transaction. *)

val export : Types.db -> string
(** The full script. *)

val import : Types.db -> string -> unit
(** Execute a script produced by {!export} against a fresh database
    (convenience wrapper over {!Shell.exec}). *)
