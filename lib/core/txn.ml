module Wal = Ode_storage.Wal
module Heap = Ode_storage.Heap
module Bptree = Ode_index.Bptree
module Oid = Ode_model.Oid
open Types

let h_commit = Ode_util.Histogram.create "txn.commit"

let c_txn_begins = Ode_util.Stats.counter "txn.begins"
let c_txn_conflicts = Ode_util.Stats.counter "txn.conflicts"

let release_snap txn =
  if txn.snap <> 0 then begin
    Mvcc.release txn.tdb.mvcc txn.snap;
    txn.snap <- 0
  end

(* Drop a finished write txn from the registry. *)
let unregister txn = if not txn.tro then Hashtbl.remove txn.tdb.wtxns txn.xid

let begin_ db =
  if db.closed then Ode_util.Ode_error.fail Resource "database is closed";
  let read_ts = Wal.last_lsn db.wal in
  let txn =
    {
      xid = db.next_xid;
      tdb = db;
      tro = false;
      read_ts;
      snap = Mvcc.snapshot db.mvcc ~read_ts;
      writes = Hashtbl.create 64;
      created = [];
      touched = Hashtbl.create 32;
      tstate = `Active;
      catalog_dirty = false;
      meta_dirty = false;
      wcount = 0;
    }
  in
  db.next_xid <- db.next_xid + 1;
  Hashtbl.replace db.wtxns txn.xid txn;
  Ode_util.Stats.incr c_txn_begins;
  Ode_util.Trace.instant ~cat:"txn" "txn.begin";
  txn

(* A detached read-only transaction: never registers as a writer and never
   allocates an xid, so any number can interleave with the write
   transactions. The write choke points in {!Store}
   raise {!Read_only_txn} against it before touching any shared state. Its
   snapshot is registered like any other so the MVCC garbage collector
   keeps the versions it can still see. *)
let begin_read db =
  if db.closed then Ode_util.Ode_error.fail Resource "database is closed";
  let read_ts = Wal.last_lsn db.wal in
  {
    xid = 0;
    tdb = db;
    tro = true;
    read_ts;
    snap = Mvcc.snapshot db.mvcc ~read_ts;
    writes = Hashtbl.create 1;
    created = [];
    touched = Hashtbl.create 1;
    tstate = `Active;
    catalog_dirty = false;
    meta_dirty = false;
    wcount = 0;
  }

let open_writers db = Hashtbl.fold (fun _ t acc -> t :: acc) db.wtxns []

let require_active txn =
  match txn.tstate with
  | `Active -> ()
  | `Committed -> Ode_util.Ode_error.user "transaction already committed"
  | `Aborted -> Ode_util.Ode_error.user "transaction already aborted"

let abort txn =
  require_active txn;
  txn.tstate <- `Aborted;
  release_snap txn;
  unregister txn;
  Ode_util.Trace.instant ~cat:"txn" "txn.abort"

let checkpoint db =
  Ode_util.Trace.with_span ~cat:"txn" "txn.checkpoint" (fun () ->
      (* The heap's header names the LSN the flushed data files hold, which
         the log continues from once cut. It is written with the heap's
         pages, before the cut, and only when the LSN moved. *)
      let lsn = Wal.last_lsn db.wal in
      if Heap.lsn db.kv_heap <> lsn then Heap.set_lsn db.kv_heap lsn;
      Heap.flush db.kv_heap;
      Bptree.flush db.kv_dir;
      Bptree.flush db.idx;
      (* The record names that LSN too, which a standby's checkpoint
         follows. Appending bumps no LSN itself. *)
      Wal.append db.wal (Wal.Checkpoint lsn);
      Wal.sync db.wal;
      Wal.reset db.wal)

let wal_bytes db = Wal.size_bytes db.wal

(* The 'E' record: next tid, clock, then each class's next object number
   as (class id, number) pairs in class-id order, all varints (the clock
   a signed one). *)
let encode_meta (m : meta) =
  let module C = Ode_util.Codec in
  let b = Buffer.create 16 in
  C.put_varint b m.next_tid;
  C.put_svarint b m.clock;
  let nums = List.sort compare (Hashtbl.fold (fun id n acc -> (id, n) :: acc) m.next_nums []) in
  C.put_varint b (List.length nums);
  List.iter
    (fun (id, n) ->
      C.put_varint b id;
      C.put_varint b n)
    nums;
  Buffer.contents b

let decode_meta s =
  let module C = Ode_util.Codec in
  let c = C.cursor s in
  let next_tid = C.get_varint c in
  let clock = C.get_svarint c in
  let n = C.get_varint c in
  let next_nums = Hashtbl.create (max 8 n) in
  for _ = 1 to n do
    let id = C.get_varint c in
    Hashtbl.replace next_nums id (C.get_varint c)
  done;
  if not (C.at_end c) then raise (C.Corrupt "meta: trailing bytes");
  { next_tid; clock; next_nums }

let fresh_meta () = { next_tid = 0; clock = 0; next_nums = Hashtbl.create 8 }

(* The catalog, meta and stats singletons are excluded from conflict
   detection and version chains: catalog/meta are re-encoded from the
   in-memory mirrors by each commit that changes them (so two concurrent
   creators both writing 'E' is not a logical conflict — the mirror
   already merged their oid allocations), snapshot reads of schema go
   through the mirrors, not the KV, and the stats snapshot is advisory
   planner input that always supersedes wholesale. *)
let versioned key = key <> Keys.catalog && key <> Keys.meta && key <> Keys.stats

let describe_key key =
  if key = "" then "a key"
  else
    match key.[0] with
    | 'H' | 'V' -> (
        match Keys.oid_of_header_key key with
        | oid -> Format.asprintf "object %a" Oid.pp oid
        | exception _ -> "an object")
    | 'R' -> Printf.sprintf "root %s" (Keys.root_name key)
    | 'I' -> "an index entry"
    | 'T' -> "a trigger activation"
    | _ -> "a key"

(* A committed frame's writes reach the committed state, on the primary
   and on a standby alike: the pre-images of its versioned keys go into
   the version chains first, for every live snapshot but [except], while
   the KV still holds them; then the writes land. *)
let apply_commit db ~ts ~except writes =
  Mvcc.commit db.mvcc ~ts ~except ~pre:(Store.committed_image db) ~versioned writes;
  Store.apply_writes db writes

(* The write set in key order, as one array: the commit sorts it once,
   and its WAL frame, MVCC and both trees' batches all read it. *)
let sorted_writes txn =
  let writes = Array.make (Hashtbl.length txn.writes) ("", Del) in
  let x = ref 0 in
  Hashtbl.iter
    (fun key op ->
      writes.(!x) <- (key, op);
      incr x)
    txn.writes;
  Ode_util.Key.sort_by fst writes

(* The first key whose chain was committed past the snapshot: a key a
   constraint or trigger condition read, then a versioned key written. *)
let first_conflict db ~read_ts reads writes =
  let past key = Mvcc.conflict db.mvcc ~read_ts key in
  match Hashtbl.fold (fun key () found -> match found with None when past key -> Some key | _ -> found) reads None with
  | Some _ as found -> found
  | None -> Option.map fst (Array.find_opt (fun (key, _) -> versioned key && past key) writes)

(* The commit body, split into prepare and ack phases. Prepare runs the
   integrity checks, evaluates trigger conditions, detects conflicts
   (first-committer-wins against the transaction's snapshot), logs the
   key-sorted write set as one WAL frame and applies that same list to the
   committed structures. The commit timestamp is the commit's own LSN,
   embedded in the frame so recovery and standbys reconstruct the same
   version order. [durable] decides the ack: under eager (Full) durability
   the WAL fsync sits between logging and applying — the classic
   sync-before-apply. Deferred commits skip it; the frame stays pending in
   the WAL until a shared {!ack} (or a checkpoint, or the buffer pool's
   write-ahead hook) makes the whole batch durable with one fsync. *)
let commit_slot ~durable txn =
  let db = txn.tdb in
  (* 0. A replica rejects local writes before any effect: read-only
        transactions (empty write set, no DDL) still commit, so remote
        sessions can use begin/commit around queries. *)
  if
    db.read_only
    && (Hashtbl.length txn.writes > 0 || txn.catalog_dirty || txn.meta_dirty)
  then begin
    abort txn;
    raise Read_only_store
  end;
  (* 1. Integrity: a violation aborts and rolls back (trivially, since
        nothing was applied). The keys these checks and step 2's
        conditions read join step 4's conflict check. *)
  let reads = Hashtbl.create 8 in
  (match Constraints.check_txn ~reads txn with
  | () -> ()
  | exception e ->
      abort txn;
      raise e);
  (* 2. Trigger conditions over the post-state; bookkeeping writes (once-only
        deactivations etc.) join this transaction. *)
  let firings = Triggers.evaluate ~reads txn in
  (* 3. Engine metadata modified by this transaction. *)
  if txn.catalog_dirty then
    Hashtbl.replace txn.writes Keys.catalog (Put (Ode_model.Catalog.encode db.catalog));
  if txn.meta_dirty then Hashtbl.replace txn.writes Keys.meta (Put (encode_meta db.meta));
  if Hashtbl.length txn.writes > 0 then begin
    let writes = sorted_writes txn in
    (* 4. First-committer-wins: if any key this transaction wrote, or any
          key a constraint or trigger condition read (which makes those
          serializable), was committed past its snapshot, abort with a
          retryable conflict. The check runs while this transaction's
          snapshot is still registered, so the GC horizon cannot have
          reclaimed a chain the check needs (any conflicting head is newer
          than our read_ts, which bounds the horizon). *)
    (match first_conflict db ~read_ts:txn.read_ts reads writes with
    | Some key ->
        abort txn;
        Ode_util.Stats.incr c_txn_conflicts;
        Ode_util.Trace.instant ~cat:"txn" "txn.conflict";
        raise
          (Txn_conflict
             (Printf.sprintf "conflict on %s: a concurrent transaction committed it first"
                (describe_key key)))
    | None -> ());
    (* 5. Log and make durable. The commit timestamp is the LSN this very
          frame receives when appended; the trace id, the request's, lets a
          standby stamp its apply spans with the originating client's id. *)
    let cts = Wal.last_lsn db.wal + 1 in
    Wal.append db.wal (Wal.Commit { trace = Ode_util.Trace.current_trace_id (); ts = cts; writes });
    if durable then Wal.sync db.wal;
    (* 6. Apply to the committed structures. *)
    apply_commit db ~ts:cts ~except:txn.snap writes
  end;
  txn.tstate <- `Committed;
  release_snap txn;
  unregister txn;
  (* 7. Bound recovery time. *)
  if Wal.size_bytes db.wal > db.wal_auto_checkpoint then checkpoint db;
  firings

(* Detached read txns commit trivially: the Store guards kept the write set
   empty, there is nothing to log and no checkpoint to consider — only the
   snapshot registration to drop. *)
let commit_active ~durable txn =
  if txn.tro then begin
    if Hashtbl.length txn.writes > 0 || txn.catalog_dirty || txn.meta_dirty then begin
      txn.tstate <- `Aborted;
      release_snap txn;
      raise Read_only_txn
    end;
    txn.tstate <- `Committed;
    release_snap txn;
    []
  end
  else commit_slot ~durable txn

let timed_commit txn ~durable =
  require_active txn;
  Ode_util.Histogram.time h_commit (fun () ->
      Ode_util.Trace.with_span ~cat:"txn" "txn.commit" (fun () -> commit_active ~durable txn))

let commit txn = timed_commit txn ~durable:(txn.tdb.durability = Full)
let commit_deferred txn = timed_commit txn ~durable:false

let pending_commits db = Wal.pending_commits db.wal

let ack db =
  if Wal.pending_commits db.wal > 0 then Wal.sync db.wal
