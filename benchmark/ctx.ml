(* One workload run: its parameters, the failures its oracle found, and the
   metrics it produced. Every workload fills one of these. *)

type metric = { name : string; value : float; unit : string; n : int option }

type t = {
  workload : string;
  seed : int;
  scale : float;
  seconds : float;  (** what the operation sequences are sized to last *)
  traced : bool;
  dir : string;  (** scratch directory of this run, removed afterwards *)
  server : string;  (** path of the ode_server executable *)
  trace_file : string;
  mutable corrupt_pending : bool;  (** perturb one oracle value: the run must then fail *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : metric list;  (** newest first *)
  mutable kinds : (string * int) list;  (** measured samples per operation kind *)
  mutable elapsed_s : float;  (** length of the measured window *)
}

let create ~workload ~seed ~scale ~seconds ~traced ~corrupt ~dir ~server ~trace_file =
  {
    workload; seed; scale; seconds; traced; dir; server; trace_file;
    corrupt_pending = corrupt; attempted = 0; failed = 0; errors = []; metrics = []; kinds = [];
    elapsed_s = 0.;
  }

(* Sizes shrink with [--scale]; never below [floor]. *)
let scaled t ?(floor = 1) n = max floor (int_of_float (Float.round (t.scale *. float_of_int n)))

(* Length of an operation sequence: [per_s] is the rate the workload ran at
   on the reference host (2 cores, see README), so the sequence lasts about
   [seconds] there. *)
let sequence t ?(floor = 20) ~per_s () = max floor (int_of_float (per_s *. t.seconds *. t.scale))

(* Load-generator domains report concurrently. *)
let mu = Mutex.create ()

let attempt t = Mutex.protect mu (fun () -> t.attempted <- t.attempted + 1)

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect mu (fun () ->
          t.failed <- t.failed + 1;
          if List.length t.errors < 10 then t.errors <- msg :: t.errors))
    fmt

(* With [--corrupt-oracle], true exactly once: the caller perturbs the
   oracle value it is about to compare, so a working check fails the run. *)
let corrupt_once t =
  Mutex.protect mu (fun () ->
      let c = t.corrupt_pending in
      t.corrupt_pending <- false;
      c)

(* An oracle comparison. Counts as a failure of its own. *)
let check t ok fmt = Printf.ksprintf (fun msg -> if not ok then fail t "%s" msg) fmt

let metric t ?n name unit value = t.metrics <- { name; value; unit; n } :: t.metrics
let find t name = List.find_opt (fun m -> m.name = name) t.metrics

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per a b = if b = 0 then 0. else a /. float_of_int b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("odebench: " ^ s)) fmt

(* Latency metrics from the measured per-kind samples (milliseconds): the
   median and 99th percentile of each kind, and of the read and the write
   kinds pooled. A workload without reads or without writes reports 0 for
   that class. *)
let latency t ~reads ~writes =
  let kinds = List.filter (fun (_, s) -> Measure.count s > 0) (reads @ writes) in
  t.kinds <- List.map (fun (k, s) -> (k, Measure.count s)) kinds;
  let pct name s =
    let a = Measure.sorted s in
    let n = Array.length a in
    metric t ~n (name ^ "_p50_ms") "ms" (if n = 0 then 0. else Measure.percentile a 0.5);
    metric t ~n (name ^ "_p99_ms") "ms" (if n = 0 then 0. else Measure.percentile a 0.99)
  in
  List.iter (fun (k, s) -> pct ("kind." ^ k) s) kinds;
  let pooled ks =
    let s = Measure.samples () in
    List.iter (fun (_, x) -> Measure.merge_into s x) ks;
    s
  in
  pct "read" (pooled reads);
  pct "write" (pooled writes)

(* Per-layer ratios from engine counter deltas over the measured window,
   read by name. [ops] are measured operations, [commits] acknowledged
   writing transactions, [rows] result rows the oracle expected. *)
let layer_counts t ~(get : string -> int) ~ops ~commits ~rows =
  let m name v = metric t name "ratio" v in
  (* A cache that saw no lookups missed nothing: its hit rate reads 1. *)
  let hit_rate hits misses = 1. -. ratio (get misses) (get hits + get misses) in
  m "pool.hit_rate" (hit_rate "pool_hits" "pool_misses");
  m "ocache.hit_rate" (hit_rate "obj_cache_hits" "obj_cache_misses");
  metric t "disk.pages_read_per_op" "pages" (ratio (get "pages_read") ops);
  metric t "disk.pages_written_per_commit" "pages" (ratio (get "pages_written") commits);
  metric t "store.fetched_per_op" "objects" (ratio (get "objects_fetched") ops);
  metric t "bptree.probes_per_op" "count" (ratio (get "index_probes") ops);
  metric t "bptree.cursor_pages_per_op" "pages" (ratio (get "cursor_pages_read") ops);
  metric t "wal.appends_per_commit" "records" (ratio (get "wal_appends") commits);
  metric t "wal.commits_per_sync" "commits" (ratio commits (get "wal_syncs"));
  m "txn.conflicts_per_commit" (ratio (get "txn.conflicts") commits);
  metric t "constraints.checked_per_commit" "count" (ratio (get "constraints_checked") commits);
  metric t "triggers.fired_per_commit" "count" (ratio (get "triggers_fired") commits);
  m "planner.stats_hit_frac"
    (ratio (get "planner.stats_hits") (get "planner.stats_hits" + get "planner.fallbacks"));
  metric t "query.examined_per_row" "objects" (ratio (get "objects_scanned") rows);
  metric t "server.reroutes_per_op" "count" (ratio (get "server.reroutes") ops);
  metric t "wire.bytes_per_op" "B" (ratio (get "server.bytes_in" + get "server.bytes_out") ops)

(* Stage self times per measured operation, from the traced run's spans;
   a stage the workload never entered reads 0. *)
let stage_times t ~self_ns ~ops =
  List.iter
    (fun s -> metric t (s ^ "_us") "us" (per (float_of_int (self_ns s) /. 1000.) ops))
    [ "stage.parse"; "stage.plan"; "stage.execute"; "stage.commit"; "stage.fsync_wait";
      "stage.decode"; "stage.reply" ]

(* Traced execution time per candidate object examined, both per operation. *)
let ns_per_candidate t ~execute_ns ~candidates =
  metric t "query.ns_per_candidate" "ns" (if candidates = 0. then 0. else execute_ns /. candidates)

(* Layers a workload does not exercise read 0. *)
let absent t metrics = List.iter (fun (name, unit) -> metric t name unit 0.) metrics

(* q-error of a cardinality estimate: how many times too high or too low,
   with both sides floored at one row. *)
let qerror ~est ~actual =
  let e = Float.max 1. est and a = Float.max 1. (float_of_int actual) in
  Float.max (e /. a) (a /. e)

let qerror_metrics t qs =
  let a = Array.of_list qs in
  Array.sort Float.compare a;
  let n = Array.length a in
  metric t ~n "planner.qerror_p50" "ratio" (if n = 0 then 0. else Measure.percentile a 0.5);
  metric t ~n "planner.qerror_max" "ratio" (if n = 0 then 0. else a.(n - 1))

(* Set-up runs [reps] times; [setup_s] is the median and the last set-up is
   the one measured. [discard] tears an earlier one down; its garbage is
   collected before the next, so the process's peak memory does not depend
   on when the collector happened to run. *)
let repeat_setup t ~reps f ~discard =
  let rec go k times =
    let t0 = Measure.now_ns () in
    let v = f () in
    let times = Measure.secs_of_ns (Measure.now_ns () - t0) :: times in
    if k > 1 then begin
      discard v;
      Gc.full_major ();
      go (k - 1) times
    end
    else (v, times)
  in
  let v, times = go reps [] in
  metric t "setup_s" "s" (Measure.median_of_list times);
  v

(* After the store was closed cleanly: space amplification (directory
   bytes over the encoded size of the live user objects and their kept
   versions) and the integrity check of the reopened store. *)
let finish t ~dir ~user_bytes =
  metric t "space_amp" "ratio" (ratio (Host.dir_bytes dir) user_bytes);
  let db = Ode.Database.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error problems -> fail t "Verify.run: %s" (String.concat "; " problems));
  Ode.Database.close db
