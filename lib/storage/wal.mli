(** Write-ahead log of logical redo records, one frame per commit.

    The engine runs deferred-apply transactions: a transaction's write set
    is framed as one [Commit] record, appended and fsynced at commit, and
    only then applied to the heap and indexes. Recovery replays the
    committed suffix after the last checkpoint, frame by frame; logical
    records are idempotent so replay over partially applied state is safe.

    On-disk format: a stream of frames [u32 len][i64 fnv64][body]. A
    [Commit] body is the tag byte [6], the trace id (zigzag varint), the
    commit timestamp (varint), then the key-sorted operations to the end of
    the frame: a byte ([1] put, [0] delete), the key and, for a put, the
    payload, each behind a varint length. A [Checkpoint] body is the tag
    byte [7] and a varint LSN. Tags [1]-[5], the per-operation layout of
    earlier builds, are refused at open with {!Ode_util.Codec.Corrupt}. A
    torn or corrupt tail terminates replay silently: a commit lands whole
    or not at all, and no intact frame can follow an unacknowledged one
    (the append-then-sync protocol rules it out).

    {2 Commit LSNs}

    Every [Commit] record is assigned the next log sequence number; LSNs
    number the database's committed transactions from the beginning of time,
    surviving checkpoints and truncations. The physical log holds only the
    records after {!base_lsn}; a sidecar file ([<log>.lsn], written and
    fsynced before each truncation) persists that base, and [Checkpoint]
    records carry the exact LSN at checkpoint time so replay reconciles a
    stale sidecar (a truncation that crashed or was lost) back to the true
    count; a [Commit] counts by its tag byte alone. Replication ships
    synced batches tagged with their LSN range (see {!set_on_sync}) and
    resumes a replica from {!tail_from}. *)

type op = Put of string | Del

type record =
  | Commit of { trace : int; ts : int; writes : (string * op) list }
      (** One transaction: the originating trace id (0 = untraced), which
          a standby's replay spans carry; the commit timestamp, the
          commit's own LSN, from which recovery and standbys rebuild the
          MVCC version order; and the write set, each key once, in key
          order. *)
  | Checkpoint of int
      (** all prior effects are on disk; carries the durable LSN at the time
          the checkpoint was taken *)

type t

val open_file : string -> t
(** Open or create a log file; the write cursor is positioned after the last
    intact frame. Reads the [.lsn] sidecar, then walks the log frame by
    frame, checking each frame's checksum, which also finds the exact
    commit LSN; the walk stops at the first frame that is torn or fails
    its checksum, and cuts the file there. The log is read through one
    reusable buffer of 64 KiB, or of one frame when that is larger, never whole. Raises
    {!Ode_util.Codec.Corrupt} on an intact frame of another kind, such as a
    log of an earlier layout. *)

val in_memory : unit -> t

val append : t -> record -> unit
(** Buffered append of one frame; durable only after {!sync}. A [Commit]
    record marks its transaction {e pending}: committed in memory, not yet
    acknowledged as durable. It is also assigned the next LSN ({!last_lsn}). *)

val append_commits : t -> string -> unit
(** Append a shipped batch that {!scan} checked and decoded whole: each
    [Commit] frame byte for byte, as {!append} would; [Checkpoint] frames
    are not copied. *)

val sync : t -> unit
(** Write the buffered frames and fsync — the durability barrier. The
    frames are encoded in place into one pending buffer, which the write
    takes as it stands and which keeps its capacity (up to 1 MiB) for the
    next batch; only the {!set_on_sync} observer gets a copy. One sync
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
    that has applied up to [lsn] still needs, found by walking the log frame
    by frame and read as one string. [None] when the log no longer
    reaches back that far (checkpointed away) or [lsn] exceeds
    {!durable_lsn}: ship a snapshot instead. *)

val replay : t -> (record -> unit) -> unit
(** Feed every intact record from the start of the log, in order, reading
    the file frame by frame as {!open_file} does. A frame {!open_file}
    checked is not hashed again. Raises {!Ode_util.Codec.Corrupt} on a
    checksummed record that does not decode or does not end exactly at its
    frame's end. *)

val reset : t -> unit
(** Truncate the log to empty (used after a checkpoint). Persists
    {!durable_lsn} to the sidecar {e before} truncating, so the LSN count
    survives the records' disposal. *)

val size_bytes : t -> int

val close : t -> unit

(**/**)

val encode_record : record -> string
val decode_record : string -> record
val scan : string -> (record -> unit) -> int
(** Exposed for the replication layer: iterate the intact frames of a raw
    batch (as delivered to the {!set_on_sync} observer), returning the byte
    offset past the last intact frame. Frames are checked and decoded in
    place. *)

val frame : string -> string
(** Frame one encoded record body (length + checksum + body). *)
