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
    surviving checkpoints and truncations. Each frame names its LSN, the
    log's only record of them: a [Commit] its own, as its [ts]; a
    [Checkpoint] the last commit's. The data files keep the checkpoint LSN
    a truncation reached ({!Heap.lsn}), which the log opens with as its
    base. A frame at or below it is one a lost truncation left: it is
    replayed over checkpointed state, which is idempotent, and counts
    nothing twice. Replication ships synced batches tagged with their LSN
    range (see {!set_on_sync}) and resumes a replica from {!tail_from}. *)

type op = Put of string | Del

type record =
  | Commit of { trace : int; ts : int; writes : (string * op) array }
      (** One transaction: the originating trace id (0 = untraced), which
          a standby's replay spans carry; the commit timestamp, the
          commit's own LSN, from which recovery and standbys rebuild the
          MVCC version order; and the write set, each key once, in key
          order: the array the commit sorted, which it also applies. *)
  | Checkpoint of int
      (** all prior effects are on disk; carries the durable LSN at the time
          the checkpoint was taken *)

val lsn_span : record -> int * int
(** The LSNs before and after the record: [(ts - 1, ts)] for a [Commit],
    [(l, l)] for a [Checkpoint l]. Each frame starts where the last ended. *)

type t

val open_file : base:int -> string -> t
(** Open or create a log file whose frames continue from [base], its data
    files' checkpoint LSN. Walks the log frame by frame through one
    reusable buffer of 64 KiB, or of one frame when that is larger,
    checking each checksum and reading the LSN each frame names; the walk
    stops at the first torn or failing frame, cuts the file there, and
    positions the write cursor after it. {!last_lsn} is the last intact
    frame's LSN, or [base] if greater. Raises {!Ode_util.Codec.Corrupt} on
    an intact frame of another kind (an earlier layout), on one that does
    not continue the frame before it ({!lsn_span}), and on a first frame
    that leaves a gap after [base]. *)

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
(** The checkpoint LSN the log continues from: the [base] it was opened
    with, or the LSN its last truncation reached. Commits up to it are in
    the data files; {!tail_from} reaches back no further. *)

val set_on_sync : t -> (data:string -> from_lsn:int -> to_lsn:int -> unit) option -> unit
(** Install a post-fsync observer: called from {!sync} with the raw frames
    just made durable and the commit-LSN range they advance, [(from_lsn,
    to_lsn]]. Called only after the barrier held — never for data that could
    still be lost — and never with an empty batch. The callback runs inside
    commit paths: it must only enqueue, not block. *)

val tail_from : t -> lsn:int -> string option
(** The raw frames of everything after the [lsn]-th commit — what a replica
    that has applied up to [lsn] still needs: the log behind the last frame
    naming [lsn] or less, read as one string. [None] when [lsn] is below
    {!base_lsn} (checkpointed away) or exceeds {!durable_lsn}: ship a
    snapshot instead. *)

val replay : t -> (record -> unit) -> unit
(** Feed every intact record from the start of the log, in order, reading
    the file frame by frame as {!open_file} does. A frame {!open_file}
    checked is not hashed again. Raises {!Ode_util.Codec.Corrupt} on a
    checksummed record that does not decode or does not end exactly at its
    frame's end. *)

val reset : t -> unit
(** Truncate the log to empty and fsync it (used after a checkpoint, once
    the data files and their checkpoint LSN are flushed). {!base_lsn}
    becomes {!durable_lsn}. *)

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
