(** Write-ahead log of logical redo records.

    The engine runs deferred-apply transactions: a transaction's effects are
    buffered, encoded as logical records, appended here and fsynced at
    commit, and only then applied to the heap and indexes. Recovery replays
    the committed suffix after the last checkpoint; logical records are
    idempotent so replay over partially applied state is safe.

    On-disk format: a stream of frames [u32 len][i64 fnv64][body]. A torn or
    corrupt tail terminates replay silently (those records were never
    acknowledged as committed unless a later intact frame exists, which the
    append-then-sync protocol rules out).

    {2 Commit LSNs}

    Every [Commit] record is assigned the next log sequence number; LSNs
    number the database's committed transactions from the beginning of time,
    surviving checkpoints and truncations. The physical log holds only the
    records after {!base_lsn}; a sidecar file ([<log>.lsn], written and
    fsynced before each truncation) persists that base, and [Checkpoint]
    records carry the exact LSN at checkpoint time so replay reconciles a
    stale sidecar (a truncation that crashed or was lost) back to the true
    count. Replication ships synced batches tagged with their LSN range
    (see {!set_on_sync}) and resumes a replica from {!tail_from}. *)

type record =
  | Begin of int                          (** txn id *)
  | Commit of int * int * int
      (** txn, originating trace id (0 = untraced), commit timestamp. The
          commit timestamp is the commit's own LSN, embedded so recovery
          and replication standbys reconstruct the MVCC version order
          exactly as the primary assigned it. The trace id lets a
          standby's replay spans carry the client-assigned id of the
          request that committed on the primary. Every [Commit] body
          carries all three fields; a shorter one is corrupt. *)
  | Put of int * string * string          (** txn, key, payload *)
  | Delete of int * string                (** txn, key *)
  | Checkpoint of int
      (** all prior effects are on disk; carries the durable LSN at the time
          the checkpoint was taken *)

type t

val open_file : string -> t
(** Open or create a log file; the write cursor is positioned after the last
    intact frame. Reads the [.lsn] sidecar, then reads the log once and
    checks each frame's checksum in place in one pass, which also finds
    the exact commit LSN. The checked log is kept for the {!replay} that
    recovery runs next. *)

val in_memory : unit -> t

val append : t -> record -> unit
(** Buffered append; durable only after {!sync}. A [Commit] record marks its
    transaction {e pending}: committed in memory, not yet acknowledged as
    durable. It is also assigned the next LSN ({!last_lsn}). *)

val sync : t -> unit
(** Flush buffered frames and fsync — the durability barrier. One sync
    acknowledges {e every} pending commit at once (group commit): the batch
    size lands in the [wal.group_size] histogram and the [wal_sync_saved]
    counter gains [batch - 1], the per-commit fsyncs the batch avoided.
    Advances {!durable_lsn} and, when a batch was written, hands it to the
    {!set_on_sync} observer. *)

val pending_commits : t -> int
(** Commits appended since the last {!sync}: transactions whose effects are
    applied but whose durability is still deferred. 0 right after a sync. *)

val last_lsn : t -> int
(** LSN of the most recently appended commit (applied, possibly pending). *)

val durable_lsn : t -> int
(** LSN covered by the last completed {!sync}. *)

val base_lsn : t -> int
(** LSN at the physical start of the log: commits up to it were
    checkpointed into the data files and truncated away. *)

val set_on_sync : t -> (data:string -> from_lsn:int -> to_lsn:int -> unit) option -> unit
(** Install a post-fsync observer: called from {!sync} with the raw frames
    just made durable and the commit-LSN range they advance, [(from_lsn,
    to_lsn]]. Called only after the barrier held — never for data that could
    still be lost — and never with an empty batch. The callback runs inside
    commit paths: it must only enqueue, not block. *)

val tail_from : t -> lsn:int -> string option
(** The raw frames of everything after the [lsn]-th commit — what a replica
    that has applied up to [lsn] still needs. [None] when the log no longer
    reaches back that far (checkpointed away) or [lsn] exceeds
    {!durable_lsn}: ship a snapshot instead. *)

val replay : t -> (record -> unit) -> unit
(** Feed every intact record from the start of the log, in order. The
    first replay after {!open_file}, with nothing synced in between,
    decodes the log {!open_file} checked and then drops it; any other
    reads the file again. Raises {!Ode_util.Codec.Corrupt} on a checksummed
    record that does not decode or does not end exactly at its frame's
    end. *)

val reset : t -> unit
(** Truncate the log to empty (used after a checkpoint). Persists
    {!durable_lsn} to the sidecar {e before} truncating, so the LSN count
    survives the records' disposal. *)

val size_bytes : t -> int

val close : t -> unit

(**/**)

val encode_record : record -> string
val decode_record : string -> record
val scan : string -> (record -> unit) option -> int
(** Exposed for the replication layer: iterate the intact frames of a raw
    batch (as delivered to the {!set_on_sync} observer), returning the byte
    offset past the last intact frame. Frames are checked and decoded in
    place. *)

val frame : string -> string
(** Frame one encoded record body (length + checksum + body). *)
