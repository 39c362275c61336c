module Ast = Ode_lang.Ast
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Typecheck = Ode_model.Typecheck
module Disk = Ode_storage.Disk
module Buffer_pool = Ode_storage.Buffer_pool
module Heap = Ode_storage.Heap
module Wal = Ode_storage.Wal
module Bptree = Ode_index.Bptree
open Types

type t = db

let log = Logs.Src.create "ode.database" ~doc:"ODE database engine"

module Log = (val Logs.src_log log : Logs.LOG)

(* -- lifecycle --------------------------------------------------------------- *)

(* The heap is attached first: its header holds the checkpoint LSN the
   log ([open_wal]'s) continues from. *)
let make_db ~dbdir ~kv_disk ~dir_disk ~idx_disk ~open_wal ~pool_pages ~wal_checkpoint_bytes
    ~durability =
  let pool d = Buffer_pool.create ~capacity:pool_pages d in
  let kv_heap = Heap.attach (pool kv_disk) in
  let db =
    {
      dbdir;
      kv_heap;
      kv_dir = Bptree.attach (pool dir_disk);
      idx = Bptree.attach (pool idx_disk);
      wal = open_wal (Heap.lsn kv_heap);
      catalog = Catalog.create ();
      meta = Txn.fresh_meta ();
      stats = Ostats.fresh ();
      next_xid = 1;
      wtxns = Hashtbl.create 8;
      mvcc = Mvcc.create ();
      action_queue = Queue.create ();
      draining = false;
      wal_auto_checkpoint = wal_checkpoint_bytes;
      durability;
      read_only = false;
      closed = false;
      printer = print_string;
    }
  in
  (* Write-ahead under deferred durability: a prepared-but-unacked commit's
     effects live in dirty pages; before any of those pages can be written
     back (eviction, flush), the WAL batch covering them must be on disk. *)
  let force_log () = Txn.ack db in
  Buffer_pool.set_pre_write (Heap.pool db.kv_heap) force_log;
  Buffer_pool.set_pre_write (Bptree.pool db.kv_dir) force_log;
  Buffer_pool.set_pre_write (Bptree.pool db.idx) force_log;
  db

let h_recovery = Ode_util.Histogram.create "recovery"
let h_trigger_fire = Ode_util.Histogram.create "trigger.fire"

let c_recovery_replayed = Ode_util.Stats.counter ~group:Ode_util.Stats.Recovery "recovery_replayed"
let c_orphans_reclaimed = Ode_util.Stats.counter ~group:Ode_util.Stats.Recovery "orphans_reclaimed"
let c_planner_analyze_runs = Ode_util.Stats.counter "planner.analyze_runs"

(* The directory's heap rids as one bitset with a bit for every slot a
   heap page can have: fewer than [Page.size / 4], each taking four bytes
   of the page's slot directory. It costs 128 bytes a heap page, however
   many records the pages hold. *)
let slots_per_page = Ode_storage.Page.size / 4

let live_rids db =
  let pages = Heap.page_count db.kv_heap in
  let bits = Bytes.make (((pages * slots_per_page) + 7) / 8) '\000' in
  Kv.iter_rids db (fun page slot ->
      if page < pages && slot < slots_per_page then begin
        let i = (page * slots_per_page) + slot in
        Bytes.set_uint8 bits (i lsr 3) (Bytes.get_uint8 bits (i lsr 3) lor (1 lsl (i land 7)))
      end);
  bits

(* A slot past the bound cannot occur; it is kept rather than swept. *)
let is_live bits ({ page; slot } : Heap.rid) =
  let i = (page * slots_per_page) + slot in
  slot >= slots_per_page || (Bytes.get_uint8 bits (i lsr 3) lsr (i land 7)) land 1 = 1

let recover db =
  Ode_util.Histogram.time h_recovery @@ fun () ->
  Ode_util.Trace.with_span ~cat:"recovery" "recovery" @@ fun () ->
  (* Idempotent logical redo, one committed transaction (one frame) at a
     time. [recovery_replayed] counts the frames. *)
  let frames = ref 0 and applied = ref 0 in
  Wal.replay db.wal (function
    | Wal.Commit { writes; _ } ->
        Store.apply_writes db writes;
        Ode_util.Stats.incr c_recovery_replayed;
        incr frames;
        applied := !applied + Array.length writes
    | Wal.Checkpoint _ -> ());
  if !frames > 0 then
    Log.info (fun m -> m "recovery: replayed %d commits, %d operations" !frames !applied);
  (* A crash between the heap flush and the directory flush can persist heap
     records whose directory entry never reached disk; reclaim them so the
     space is not leaked and Verify's dir<->heap cross-check holds. Such
     orphans only exist while the WAL still holds the Puts that wrote
     them: a checkpoint resets the log only after the heap, directory and
     index flushes. So an open after a clean close skips the sweep. *)
  if Wal.size_bytes db.wal > 0 then begin
    let live = live_rids db in
    let swept = Heap.sweep_orphans db.kv_heap ~live:(is_live live) in
    if swept > 0 then begin
      Ode_util.Stats.add c_orphans_reclaimed swept;
      Log.info (fun m -> m "recovery: reclaimed %d orphan heap records" swept)
    end
  end;
  Txn.checkpoint db

let load_state db =
  (match Kv.get db Keys.catalog with
  | Some s -> db.catalog <- Catalog.decode s
  | None -> ());
  (match Kv.get db Keys.meta with
  | Some s -> db.meta <- Txn.decode_meta s
  | None -> ());
  (* Planner statistics: recovery replay may already have installed a
     newer snapshot (and tail adjustments) through [Store.apply_writes]; only
     fall back to the checkpointed copy when it hasn't. *)
  if not db.stats.st_analyzed then
    (match Kv.get db Keys.stats with
    | Some s -> ( try Ostats.install db s with Ode_util.Codec.Corrupt _ -> ())
    | None -> ())

let pools db = [ Heap.pool db.kv_heap; Bptree.pool db.kv_dir; Bptree.pool db.idx ]

let close_fds db =
  Wal.close db.wal;
  List.iter (fun p -> Disk.close (Buffer_pool.disk p)) (pools db)

(* A closed or crashed handle holds no page: its frames are freed at once,
   before a caller that reopens the store reads it in again, and a read
   through the old handle is refused as a closed database. *)
let release_pools db = List.iter Buffer_pool.release (pools db)

let open_ ?(pool_pages = 512) ?(wal_checkpoint_bytes = 8 * 1024 * 1024) ?(durability = Full) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file name = Filename.concat dir name in
  (* An open that fails (a refused or corrupt file, an injected crash)
     closes every file it had opened: no descriptor outlives it. *)
  let opened = ref [] in
  let opening close x =
    opened := (fun () -> close x) :: !opened;
    x
  in
  match
    let kv_disk = opening Disk.close (Disk.open_file (file "objects.heap")) in
    let dir_disk = opening Disk.close (Disk.open_file (file "directory.bpt")) in
    let idx_disk = opening Disk.close (Disk.open_file (file "indexes.bpt")) in
    let open_wal base = opening Wal.close (Wal.open_file ~base (file "wal.log")) in
    let db =
      make_db ~dbdir:(Some dir) ~kv_disk ~dir_disk ~idx_disk ~open_wal ~pool_pages
        ~wal_checkpoint_bytes ~durability
    in
    recover db;
    load_state db;
    db
  with
  | db -> db
  | exception e ->
      List.iter (fun close -> try close () with _ -> ()) !opened;
      raise e

let open_in_memory ?(pool_pages = 4096) ?(durability = Full) () =
  let db =
    make_db ~dbdir:None ~kv_disk:(Disk.in_memory ()) ~dir_disk:(Disk.in_memory ())
      ~idx_disk:(Disk.in_memory ()) ~open_wal:(fun _ -> Wal.in_memory ()) ~pool_pages
      ~wal_checkpoint_bytes:(64 * 1024 * 1024) ~durability
  in
  load_state db;
  db

let checkpoint = Txn.checkpoint

let close db =
  if not db.closed then begin
    List.iter (fun t -> try Txn.abort t with _ -> ()) (Txn.open_writers db);
    Txn.checkpoint db;
    close_fds db;
    release_pools db;
    db.closed <- true
  end

let crash db =
  if not db.closed then begin
    close_fds db;
    release_pools db;
    db.closed <- true
  end

(* -- trigger action drain ------------------------------------------------------ *)

let max_cascade = 10_000

let with_txn_no_drain db f =
  let txn = Txn.begin_ db in
  match f txn with
  | v ->
      let firings = Txn.commit txn in
      List.iter (fun fr -> Queue.add fr db.action_queue) firings;
      v
  | exception e ->
      if txn.tstate = `Active then Txn.abort txn;
      raise e

let run_firing db (f : firing) =
  let a = f.f_act in
  match Triggers.decl db a with
  | None -> () (* the declaration vanished: drop *)
  | Some g ->
      let stmts = match f.f_kind with Fired -> g.gaction | Timed_out -> g.gtimeout in
      if stmts <> [] then begin
        let run txn =
          let env = Interp.env ~print:db.printer ~this:(Value.Ref a.aoid) () in
          List.iter2
            (fun (p : Schema.field) v -> Interp.define_var env p.fname v)
            g.gparams a.targs;
          Interp.exec_stmts txn env stmts
        in
        let run txn =
          Ode_util.Histogram.time h_trigger_fire (fun () ->
              Ode_util.Trace.with_span ~cat:"trigger"
                ~args:[ ("trigger", a.tname) ]
                "trigger.action" (fun () -> run txn))
        in
        match with_txn_no_drain db run with
        | () -> ()
        | exception (Ode_util.Failpoint.Crash _ as e) ->
            (* Simulated process death is not an action failure: the whole
               engine is dying, so weak coupling must not contain it. *)
            raise e
        | exception e ->
            (* A failed action aborts only itself (weak coupling). *)
            Log.warn (fun m ->
                m "trigger %s action failed: %s" a.tname (Printexc.to_string e))
      end

let drain db =
  if not db.draining then begin
    db.draining <- true;
    Fun.protect
      ~finally:(fun () -> db.draining <- false)
      (fun () ->
        let steps = ref 0 in
        let rec go () =
          match Queue.take_opt db.action_queue with
          | None -> ()
          | Some f ->
              incr steps;
              if !steps > max_cascade then begin
                Queue.clear db.action_queue;
                Log.err (fun m -> m "trigger cascade exceeded %d actions; stopping" max_cascade)
              end
              else begin
                run_firing db f;
                go ()
              end
        in
        go ())
  end

let with_txn db f =
  let v = with_txn_no_drain db f in
  drain db;
  v

(* A detached read-only transaction around [f]. Commit is trivial —
   queries cannot fire triggers, so there is nothing to drain. *)
let with_read_txn db f =
  let txn = Txn.begin_read db in
  match f txn with
  | v ->
      ignore (Txn.commit txn);
      v
  | exception e ->
      (match txn.tstate with `Active -> Txn.abort txn | `Committed | `Aborted -> ());
      raise e

let begin_txn = Txn.begin_

let commit txn =
  let db = txn.tdb in
  let firings = Txn.commit txn in
  List.iter (fun fr -> Queue.add fr db.action_queue) firings;
  drain db

let commit_deferred txn =
  let db = txn.tdb in
  let firings = Txn.commit_deferred txn in
  List.iter (fun fr -> Queue.add fr db.action_queue) firings;
  (* Trigger actions commit under the database mode; any deferred among them
     join the same pending batch and are acknowledged by the same sync. *)
  drain db

let abort = Txn.abort

(* -- durability ------------------------------------------------------------- *)

type durability = Types.durability = Full | Group | Async

let durability db = db.durability
let set_durability db d = db.durability <- d
let sync_commits = Txn.ack
let pending_commits = Txn.pending_commits

let durability_name = function Full -> "full" | Group -> "group" | Async -> "async"

let durability_of_string = function
  | "full" -> Some Full
  | "group" -> Some Group
  | "async" -> Some Async
  | _ -> None

(* -- replication ------------------------------------------------------------- *)

let lsn db = Wal.last_lsn db.wal
let durable_lsn db = Wal.durable_lsn db.wal

(* -- concurrency / MVCC introspection --------------------------------------- *)

(* Open read-write transactions as [(xid, read_ts)], oldest xid first — the
   shell's [.txns] report. *)
let open_txns db =
  List.sort compare (List.map (fun t -> (t.xid, t.read_ts)) (Txn.open_writers db))

let oldest_snapshot db = Mvcc.oldest_snapshot db.mvcc
let live_snapshots db = Mvcc.live_snapshots db.mvcc
let mvcc_chains db = Mvcc.chain_count db.mvcc
let mvcc_dead_versions db = Mvcc.dead_versions db.mvcc
let mvcc_reclaimed db = Mvcc.reclaimed_total db.mvcc
(* Residency gauge for the metrics endpoint: pages cached across the
   three buffer pools (heap, directory B+tree, index B+tree). *)
let pool_resident db = List.fold_left (fun n p -> n + Buffer_pool.resident p) 0 (pools db)
let wal_tail db ~lsn = Wal.tail_from db.wal ~lsn
let set_wal_observer db f = Wal.set_on_sync db.wal f
let read_only db = db.read_only
let set_read_only db ro = db.read_only <- ro
let dir db = db.dbdir

(* Apply one shipped WAL batch on a standby: the same logical redo as
   [recover], driven by the replication stream instead of the local log.
   [frames] is the batch as shipped, every frame checked, and [records]
   what it decodes to. Its Commit frames are appended to the standby's own
   WAL byte for byte and fsynced *before* they are applied (write-ahead, so
   a standby crash mid-apply replays them), and the standby's commit LSN
   advances through them exactly as the primary's did.

   A [Checkpoint] record — the last in its batch, since the primary's
   checkpoint syncs — is not copied into our log; it triggers the standby's
   own checkpoint, keeping its recovery just as bounded.

   Each commit's pre-images go into the standby's MVCC version chains under
   the commit timestamp the primary embedded in the record — so an explicit
   read transaction held open on a standby session observes exactly the
   snapshot it began with even while batches stream in, and primary and
   standby agree on version order. *)
let apply_replicated db ~frames (records : Wal.record list) =
  if db.closed then Ode_util.Ode_error.fail Resource "database is closed";
  Ode_util.Trace.with_span ~cat:"repl" "repl.apply" @@ fun () ->
  Wal.append_commits db.wal frames;
  Wal.sync db.wal;
  let checkpointed = ref false in
  List.iter
    (function
      | Wal.Checkpoint _ -> checkpointed := true
      | Wal.Commit { trace; ts; writes } ->
          (* One instant per traced commit, stamped with the trace id the
             primary logged, so this standby's dump correlates with the
             originating client's request spans across processes. *)
          if trace <> 0 then
            Ode_util.Trace.with_trace_id trace (fun () ->
                Ode_util.Trace.instant ~cat:"repl" ~args:[ ("ts", string_of_int ts) ] "repl.apply");
          (* Schema, counter and clock changes shipped from the primary
             must reach the standby's decoded catalog and meta, not just
             its pages. They are decoded only when the commit wrote them,
             first, as the primary held them before its commit. Trigger
             activations live only in the store, so their records land
             with the pages. *)
          Array.iter
            (fun (key, op) ->
              match op with
              | Put s when key = Keys.catalog -> db.catalog <- Catalog.decode s
              | Put s when key = Keys.meta -> db.meta <- Txn.decode_meta s
              | _ -> ())
            writes;
          Txn.apply_commit db ~ts ~except:0 writes;
          Ode_util.Stats.incr c_recovery_replayed)
    records;
  if !checkpointed || Wal.size_bytes db.wal > db.wal_auto_checkpoint then Txn.checkpoint db

(* -- schema ---------------------------------------------------------------------- *)

(* DDL mutates the shared catalog mirror in place before committing it, so
   it cannot overlap any open write transaction (whose snapshot it would
   pollute) — not just "a" transaction on this session. *)
let require_no_txn db what =
  if Hashtbl.length db.wtxns > 0 then
    Ode_util.Ode_error.user "%s cannot run inside a transaction" what

(* DDL and the clock mutate in-memory state before the commit that would
   reject them, so a standby refuses them up front. *)
let require_writable db = if db.read_only then raise Read_only_store

let define_class db (decl : Ast.class_decl) =
  require_no_txn db "define_class";
  require_writable db;
  (* Resolve the would-be field set to drive the implicit-this rewrite. *)
  let parent_fields =
    List.concat_map
      (fun p ->
        match Catalog.find db.catalog p with
        | Some c -> Schema.field_names (Catalog.all_fields db.catalog c)
        | None -> Ode_util.Ode_error.user "schema error: unknown parent class %s" p)
      decl.c_parents
  in
  let own = List.map (fun (f : Ast.field_decl) -> f.fd_name) decl.c_fields in
  let decl = Rewrite.class_decl decl ~all_field_names:(parent_fields @ own) in
  let cls = Catalog.define db.catalog decl in
  (match Typecheck.check_class db.catalog cls with
  | () -> ()
  | exception e ->
      (* A class that fails typechecking must not stay registered: restore
         the catalog from its last persisted state. The oid counters live
         in [db.meta], so the restore cannot move them back. *)
      db.catalog <-
        (match Kv.get db Keys.catalog with
        | Some s -> Catalog.decode s
        | None -> Catalog.create ());
      raise e);
  ignore (with_txn_no_drain db (fun txn -> txn.catalog_dirty <- true));
  cls

let define db source =
  let tops = Ode_lang.Parser.program source in
  List.map
    (function
      | Ast.TClass decl -> define_class db decl
      | _ -> Ode_util.Ode_error.user "schema error: define: only class declarations are allowed here")
    tops

let create_cluster db name =
  require_no_txn db "create_cluster";
  require_writable db;
  Catalog.create_cluster db.catalog name;
  ignore (with_txn_no_drain db (fun txn -> txn.catalog_dirty <- true))

let create_index db ~cls ~field =
  require_no_txn db "create_index";
  require_writable db;
  Catalog.add_index db.catalog ~cls ~field;
  let idx_id =
    match Store.index_ids db ~cls ~field with Some i -> i | None -> assert false
  in
  (* Backfill from every object in the cluster hierarchy. *)
  ignore
    (with_txn_no_drain db (fun txn ->
         txn.catalog_dirty <- true;
         let classes = Catalog.subclasses db.catalog cls in
         List.iter
           (fun cname ->
             match Catalog.find db.catalog cname with
             | None -> ()
             | Some c -> (
                 match Catalog.slot (Catalog.layout db.catalog c) field with
                 | None -> ()
                 | Some slot ->
                     (* The scan's payload is the committed record, which
                        no other commit changes during this call. *)
                     Kv.iter_prefix db (Keys.header_prefix_class c.Schema.id) (fun key payload ->
                         let oid = Keys.oid_of_header_key key in
                         let v = (snd (Store.decode_object db oid payload)).(slot) in
                         Store.index_put txn ~idx_id ~value:v ~oid;
                         true)))
           classes))

let catalog db = db.catalog

(* -- planner statistics ------------------------------------------------------ *)

(* `analyze`: one full committed-state scan producing the statistics
   snapshot, then an ordinary transaction writing it under the 'S' key —
   the commit apply installs it (Store.apply_writes), and WAL/replication/
   recovery carry it like any other committed write. DDL-like: runs
   outside transactions so the scan summarizes a quiesced committed
   state. *)
let analyze db =
  require_no_txn db "analyze";
  require_writable db;
  let payload = Ostats.compute db in
  ignore (with_txn_no_drain db (fun txn -> Store.write txn Keys.stats payload));
  Ode_util.Stats.incr c_planner_analyze_runs;
  Ostats.describe db

let stats_summary db = Ostats.describe db
let stats_analyzed db = Ostats.analyzed db
let stats_stale db = Ostats.stale db

(* -- objects ------------------------------------------------------------------------ *)

let pnew txn cname inits =
  let cls = Catalog.find_exn txn.tdb.catalog cname in
  Store.create txn cls inits

let pdelete txn oid = Store.delete_object txn oid
let get txn oid = Store.get_fields txn.tdb (Some txn) oid

let get_field txn oid fname =
  match Store.get_field txn.tdb (Some txn) oid fname with
  | Some v -> v
  | None -> raise Not_found

let set_field txn oid fname v = Store.update_fields txn oid [ (fname, v) ]
let update txn oid fields = Store.update_fields txn oid fields
let exists db ?txn oid = Store.exists db txn oid

let class_name_of db oid =
  Option.map (fun (c : Schema.cls) -> c.Schema.name) (Store.class_of db oid)

let is_instance db oid super =
  match class_name_of db oid with
  | Some sub -> Catalog.is_subclass db.catalog ~sub ~super
  | None -> false

let call txn oid m args = Runtime.call_method txn.tdb (Some txn) (Value.Ref oid) m args
let eval txn ?(vars = []) e = Runtime.eval txn.tdb (Some txn) ~vars e

(* -- versions -------------------------------------------------------------------------- *)

let newversion txn oid = Store.new_version txn oid

let header_exn txn oid =
  match Store.get_header txn.tdb (Some txn) oid with
  | Some h -> h
  | None -> raise Not_found

(* Stored newest-first; callers expect ascending. *)
let versions txn oid = List.rev (header_exn txn oid).Store.hversions
let current_version txn oid = (header_exn txn oid).Store.hcurrent
let get_version txn vr = Store.get_fields_v txn.tdb (Some txn) vr
let pdelete_version txn vr = Store.delete_version txn vr

(* -- triggers --------------------------------------------------------------------------- *)

let activate txn oid tname args = Triggers.activate txn oid tname args
let deactivate txn tid = Triggers.deactivate txn tid

let advance_time db n =
  require_no_txn db "advance_time";
  require_writable db;
  if n < 0 then Ode_util.Ode_error.user "advance time: negative step %d" n;
  with_txn_no_drain db (fun txn ->
      db.meta.clock <- db.meta.clock + n;
      txn.meta_dirty <- true);
  let expired = Triggers.expired db in
  if expired <> [] then begin
    with_txn_no_drain db (fun txn ->
        List.iter (Triggers.retire txn) expired);
    List.iter
      (fun a -> Queue.add { f_act = a; f_kind = Timed_out } db.action_queue)
      (List.sort (fun a b -> Int.compare a.tid b.tid) expired)
  end;
  drain db

let now db = db.meta.clock
let set_action_printer db p = db.printer <- p

(* -- roots ---------------------------------------------------------------------------- *)

let set_root txn name v =
  let b = Buffer.create 16 in
  Value.encode b v;
  Store.write txn (Keys.root name) (Buffer.contents b)

let root txn name =
  match Store.read txn.tdb (Some txn) (Keys.root name) with
  | None -> None
  | Some s -> Some (Value.decode (Ode_util.Codec.cursor s))

let root_exn txn name =
  match root txn name with Some v -> v | None -> raise Not_found
