(** Transactions.

    The paper treats "any O++ program that interacts with the database" as a
    single transaction; here transactions are explicit and the engine runs
    any number of them concurrently under MVCC snapshot isolation: each
    transaction captures a read timestamp at {!begin_} and reads resolve
    against that snapshot through {!Mvcc} version chains, while writes stay
    private in a per-transaction write set until commit (deferred apply).
    At commit, constraints are checked, trigger conditions evaluated,
    write-write conflicts detected (first-committer-wins — the loser aborts
    with the retryable {!Types.Txn_conflict}), the logical operations
    logged with their commit timestamp and fsynced, and only then applied
    to the disk structures. Abort simply discards the write set.

    Commit returns the trigger firings to run as follow-up transactions
    (weak coupling); {!Database.with_txn} drains them. *)

open Types

val begin_ : db -> txn
(** Open a read-write transaction. Any number may be open at once; each
    gets its own snapshot and write set. *)

val begin_read : db -> txn
(** A detached read-only transaction: it never registers as a writer or
    allocates an xid, so it is cheaper to open and close than {!begin_},
    and the server runs autocommitted queries in one. Every write choke point in {!Store} raises
    {!Types.Read_only_txn} against it before touching shared state; commit
    is trivial (nothing to log). *)

val open_writers : db -> txn list
(** Every open write transaction, unordered. *)

val commit : txn -> firing list
(** Raises {!Types.Constraint_violation} after auto-aborting if a constraint
    fails, {!Types.Txn_conflict} after auto-aborting if another transaction
    committed a conflicting write first. Durability follows the database's
    {!Types.durability} mode: under [Full] the WAL is fsynced before the
    write set is applied (eager); under [Group]/[Async] the commit is
    {e prepared} — logged and applied — but stays pending until {!ack} (or
    a checkpoint) runs the shared fsync. *)

val commit_deferred : txn -> firing list
(** {!commit} with durability always deferred, regardless of mode: the
    prepare phase alone. Pair with {!ack} before acknowledging the commit to
    any client. *)

val ack : db -> unit
(** The ack phase: one [Wal.sync] making every pending (prepared) commit
    durable at once. No-op when nothing is pending — in particular when the
    buffer pool's write-ahead hook or a checkpoint already forced the log. *)

val pending_commits : db -> int
(** Commits prepared but not yet acknowledged by a sync. *)

val abort : txn -> unit

val apply_commit : db -> ts:int -> except:int -> (string * op) array -> unit
(** [apply_commit db ~ts ~except writes] applies one committed frame's
    key-sorted write set, as {!commit} does on the primary and a standby
    does with each frame it is shipped: the pre-images of the keys with
    version chains (every key but the catalog, meta and stats records)
    for the live snapshots but [except], then {!Store.apply_writes}.
    Trigger activations live only in the store, so nothing else follows. *)

val checkpoint : db -> unit
(** Flush every pool, sync the disks, and reset the WAL. *)

val wal_bytes : db -> int

(**/**)

val encode_meta : meta -> string
val decode_meta : string -> meta

val fresh_meta : unit -> meta
(** The metadata of an empty store. *)
