(** Multi-version concurrency control: snapshot isolation over logical keys.

    A database is used from one domain, which applies every commit, but
    any number of transactions may be open at once, interleaved by the
    sessions that own them. Each transaction
    captures a read timestamp at begin — the commit LSN of the last applied
    transaction — and every read resolves against that snapshot:
    committed-after-snapshot overwrites and deletes are undone through
    per-key version chains kept here, so a long-lived reader sees one
    stable database state while writers keep committing.

    {2 Version chains}

    A chain holds a key's committed history, newest first: each entry is
    the value written by the commit with that timestamp ([None] =
    tombstone), and the oldest entry is the pre-image captured when the
    chain was created. Chains are recorded by the commit path {e only when
    a concurrent snapshot exists that could still need the overwritten
    image}; with no concurrent snapshots the store behaves exactly as
    before (no chains, no overhead beyond one length check per read).
    Commit timestamps are the WAL commit LSNs, so the version order is
    durable, survives checkpoints, and is reproduced identically by crash
    recovery and replication standbys.

    {2 Conflicts}

    Write-write conflicts are detected at commit, first-committer-wins: a
    committing transaction conflicts if any key it wrote has a chain head
    newer than its read timestamp. Missing chains are safe: a chain is
    always recorded while any transaction that could later conflict holds
    its snapshot (registered at begin), and the garbage collector never
    reclaims a chain whose head is newer than the oldest live snapshot.

    {2 Garbage collection}

    [gc] drops chains entirely invisible to every live snapshot and trims
    entries older than the oldest one still reachable; [maybe_gc] runs it
    incrementally from the commit and release paths. Nothing here takes a
    lock: every caller runs on the database's one domain. *)

type t

type visibility =
  | Latest  (** the snapshot sees the key's current committed state *)
  | Older of string option
      (** the snapshot predates the chain head: the value it sees
          ([None] = the key did not exist / was deleted) *)

val create : unit -> t

(** {1 Snapshots} *)

val snapshot : t -> read_ts:int -> int
(** Register a live snapshot; returns a token for {!release}. *)

val release : t -> int -> unit
(** Drop a snapshot (idempotent per token); may trigger incremental GC. *)

val oldest_snapshot : t -> int option
(** The minimum read timestamp among live snapshots — the GC horizon. *)

val live_snapshots : t -> int
(** Number of registered snapshots. *)

(** {1 Reads} *)

val read : t -> read_ts:int -> string -> visibility
(** Resolve [key] against the snapshot. [Latest] means "use the committed
    store (and its caches) as-is" — also the answer whenever the key has
    no chain. O(1) with an atomic fast path when no chains exist. *)

val keys_matching : t -> (string -> bool) -> string list
(** All chained keys satisfying the predicate, sorted — scan paths merge
    these into B+tree iteration so keys deleted after a snapshot still
    surface as candidates (visibility filtering happens per key). *)

(** {1 Commit} *)

val conflict : t -> read_ts:int -> string -> bool
(** First-committer-wins check: whether [key]'s chain head is newer than
    [read_ts]. Run for each key of a commit before logging it. *)

val commit :
  t ->
  ts:int ->
  except:int ->
  pre:(string -> string option) ->
  versioned:(string -> bool) ->
  (string * Ode_storage.Wal.op) array ->
  unit
(** Record one committed transaction's writes of [versioned] keys at
    commit timestamp [ts] ({e before} the writes are applied to the
    store). [pre key] must return the key's current committed value — it
    seeds a new chain's base entry. [except] is the committer's own
    snapshot token: chains are recorded only if any {e other} snapshot is
    live, and otherwise the writes are not read at all. Also advances the
    commit floor and may trigger incremental GC. *)

(** {1 Garbage collection and gauges} *)

val gc : t -> unit
(** Reclaim: drop chains whose head every live snapshot can already see,
    trim entries older than the horizon. With no live snapshots this
    empties the table. *)

val chain_count : t -> int
(** Keys currently carrying a version chain. *)

val dead_versions : t -> int
(** Superseded versions retained for live snapshots (chain entries beyond
    the heads) — the reclaimable backlog. *)

val reclaimed_total : t -> int
(** Versions reclaimed by GC since startup (monotonic). *)
