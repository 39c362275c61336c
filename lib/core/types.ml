(* Internal shared state of the database engine.

   Exposed record fields are an implementation detail of the [Ode] library;
   external code should use the {!Database}, {!Txn}, {!Store} and {!Query}
   interfaces. *)

module Oid = Ode_model.Oid
module Value = Ode_model.Value

(* A pending logical write: last-wins per key within one transaction. The
   WAL's own type, so one sorted write set is framed, applied, replayed and
   shipped as it stands. *)
type op = Ode_storage.Wal.op = Put of string | Del

(* Decoded object header, the front of the 'H' record (the current
   version's fields follow it there). [hversions] is kept newest-first so
   allocating the next version number is O(1). The class is the oid's. *)
type header = { hcurrent : int; hversions : int list }

(* A trigger activation, decoded from its 'T' record when a reader needs
   it; nothing keeps one. The record stores only [tdecl], [tpos], [targs],
   [deadline] and [active]; [aoid] and the tid are its key's, and [tcls],
   [tname] and [perpetual] come from the declaration, the names as the
   catalog's own strings. *)
type activation = {
  tid : int;
  aoid : Oid.t;                  (* object the trigger is attached to *)
  tdecl : int;                   (* id of the class declaring the trigger *)
  tpos : int;                    (* its position in that class's own_triggers *)
  tcls : string;                 (* name of the declaring class *)
  tname : string;
  targs : Value.t list;
  perpetual : bool;
  deadline : int option;         (* logical-clock deadline of a timed trigger *)
  active : bool;
}

type firing_kind = Fired | Timed_out

type firing = { f_act : activation; f_kind : firing_kind }

(* Engine metadata, the 'E' record. [next_nums] maps a class id to the
   number its next object gets; a class with no objects yet has no entry. *)
type meta = { mutable next_tid : int; mutable clock : int; next_nums : (int, int) Hashtbl.t }

(* One index's key-distribution statistics as of the last analyze. *)
type idx_stat = {
  is_total : int;                          (* entries at analyze time *)
  is_distinct : int;                       (* distinct keys at analyze time *)
  is_hist : Ode_util.Histogram.Dist.t;     (* equi-depth key histogram *)
}

(* Planner statistics: per-extent cardinality and per-index key
   distributions. Histograms and the [st_base] snapshot are rebuilt only
   by `analyze` (full scan); the cardinality counters and [st_mods] are
   maintained incrementally by [Store.apply_writes] on every committed /
   recovered / replicated header create+delete, so the planner's row
   estimates track the live database and staleness is measurable as
   mods-since-analyze against the analyze-time base. *)
type ostats = {
  mutable st_analyzed : bool;              (* an analyze has populated this *)
  mutable st_base : int;                   (* live objects at analyze time *)
  mutable st_mods : int;                   (* header creates+deletes since *)
  st_cards : (int, int) Hashtbl.t;         (* class id -> live object count *)
  st_idx : (int, idx_stat) Hashtbl.t;      (* idx id -> key distribution *)
}

(* When a commit becomes durable:
   - [Full]: every commit fsyncs the WAL before it is acknowledged (eager,
     the historical behavior).
   - [Group]: commits apply in memory and stay *pending* until a shared
     [Wal.sync] acknowledges the whole batch — one fsync for many commits.
     The serving layer syncs once per scheduler tick, before replying.
   - [Async]: like [Group] but nothing waits for the sync; durability
     arrives at the next checkpoint, page write-back, or explicit sync.
   Crash safety is identical in all modes (write-ahead is enforced by the
   buffer pool's pre-write hook); what varies is whether an *acknowledged*
   commit can be lost: never under Full/Group, bounded under Async. *)
type durability = Full | Group | Async

type txn = {
  xid : int;
  tdb : db;
  tro : bool;                               (* detached read-only txn: never
                                               registers as a writer, never
                                               allocates an xid; any write
                                               attempt raises Read_only_txn *)
  read_ts : int;                            (* snapshot: commit LSN at begin *)
  mutable snap : int;                       (* Mvcc snapshot token; 0 = released *)
  writes : (string, op) Hashtbl.t;          (* logical key -> final state *)
  mutable created : Oid.t list;             (* reverse creation order *)
  touched : (Oid.t, unit) Hashtbl.t;        (* objects written (for constraints/triggers) *)
  mutable tstate : [ `Active | `Committed | `Aborted ];
  mutable catalog_dirty : bool;             (* DDL happened *)
  mutable meta_dirty : bool;                (* a counter or the clock moved *)
  mutable wcount : int;                     (* overlay writes so far: a record
                                               fetched at one count is still
                                               this txn's view of it while the
                                               count holds *)
}

and db = {
  dbdir : string option;                    (* None = in-memory *)
  kv_heap : Ode_storage.Heap.t;             (* record payloads *)
  kv_dir : Ode_index.Bptree.t;              (* logical key -> heap rid *)
  idx : Ode_index.Bptree.t;                 (* secondary index entries *)
  wal : Ode_storage.Wal.t;
  mutable catalog : Ode_model.Catalog.t;
  mutable meta : meta;
  stats : ostats;                           (* planner statistics ('S' key) *)
  mutable next_xid : int;
  wtxns : (int, txn) Hashtbl.t;             (* xid -> every open write txn *)
  mvcc : Mvcc.t;                            (* version chains + snapshots *)
  action_queue : firing Queue.t;            (* weakly-coupled trigger actions *)
  mutable draining : bool;
  mutable wal_auto_checkpoint : int;        (* bytes; checkpoint when exceeded *)
  mutable durability : durability;          (* when commits fsync (see above) *)
  mutable read_only : bool;                 (* replica mode: reject local writes *)
  mutable closed : bool;
  mutable printer : string -> unit;         (* trigger-action [print] output *)
}

exception Constraint_violation of { cls : string; cname : string; oid : Oid.t }

exception Txn_conflict of string
(* First-committer-wins: another transaction committed a write to a key this
   one also wrote, after this one's snapshot. The transaction has already
   been aborted; the error is retryable (class [Conflict]: clients re-run it
   under their retry budget). *)

exception Read_only_store
(* The database is a replication standby: local writes are rejected (class
   [Redirect]: clients try their next endpoint for the primary). *)

exception Read_only_txn
(* A write reached a detached read-only transaction (Txn.begin_read). The
   guard fires before any shared state is touched. *)
