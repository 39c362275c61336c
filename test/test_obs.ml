(* Observability: the span tracer, latency histograms, the Stats registry,
   and per-query EXPLAIN ANALYZE profiling. Trace and Histogram are
   process-global, so every test restores the defaults (tracing off and
   cleared, histograms on) before returning. *)

module Trace = Ode_util.Trace
module Histogram = Ode_util.Histogram
module Stats = Ode_util.Stats
module Db = Ode.Database
module Shell = Ode.Shell
module Query = Ode.Query

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what s sub =
  if not (contains s sub) then Alcotest.failf "%s: %S lacks %S" what s sub

let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())

(* -- tracer ---------------------------------------------------------------- *)

let span_nesting () =
  with_tracing @@ fun () ->
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.instant ~cat:"t" "tick";
        Trace.with_span "inner" (fun () -> 42))
  in
  Alcotest.(check int) "with_span returns" 42 r;
  match Trace.spans () with
  | [ tick; inner; outer ] ->
      (* spans record at completion, so innermost-first *)
      Alcotest.(check string) "first" "tick" tick.Trace.sp_name;
      Alcotest.(check string) "second" "inner" inner.Trace.sp_name;
      Alcotest.(check string) "third" "outer" outer.Trace.sp_name;
      Alcotest.(check int) "tick depth" 1 tick.Trace.sp_depth;
      Alcotest.(check int) "inner depth" 1 inner.Trace.sp_depth;
      Alcotest.(check int) "outer depth" 0 outer.Trace.sp_depth;
      assert (tick.Trace.sp_phase = Trace.Instant);
      assert (inner.Trace.sp_phase = Trace.Complete);
      (* the outer span covers the inner one *)
      assert (outer.Trace.sp_start_ns <= inner.Trace.sp_start_ns);
      assert (
        outer.Trace.sp_start_ns + outer.Trace.sp_dur_ns
        >= inner.Trace.sp_start_ns + inner.Trace.sp_dur_ns)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let span_exception_safe () =
  with_tracing @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Trace.spans () with
  | [ s ] ->
      Alcotest.(check string) "recorded on raise" "boom" s.Trace.sp_name;
      Alcotest.(check int) "depth restored" 0 s.Trace.sp_depth
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* The clock resolves nanoseconds and never steps back: 1,000 readings
   back to back never decrease and take at least 500 values. A clock of
   whole microseconds takes a few dozen, and [Histogram.time] would record
   0 for any call shorter than one. *)
let clock_resolves_nanoseconds () =
  let r = Array.init 1000 (fun _ -> Trace.now_ns ()) in
  for i = 1 to 999 do
    if r.(i) < r.(i - 1) then Alcotest.failf "reading %d (%d) is below the one before (%d)" i r.(i) r.(i - 1)
  done;
  let distinct = List.length (List.sort_uniq compare (Array.to_list r)) in
  if distinct < 500 then Alcotest.failf "1,000 readings took %d distinct values, want at least 500" distinct

let ring_wraparound () =
  with_tracing @@ fun () ->
  let cap0 = Trace.capacity () in
  Fun.protect
    (fun () ->
      Trace.set_capacity 4;
      for i = 1 to 10 do
        Trace.instant (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check int) "total includes overwritten" 10 (Trace.total_recorded ());
      let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans ()) in
      Alcotest.(check (list string)) "last 4, oldest first" [ "e7"; "e8"; "e9"; "e10" ] names)
    ~finally:(fun () -> Trace.set_capacity cap0)

(* Nested ambient trace ids through a small ring that wraps: each round
   opens three nested [with_trace_id] scopes, the innermost left by an
   exception from inside a span, and a span wraps the middle scope. A
   span's name starts with the id installed around it when it completes.
   The invariants `.trace dump` correlation rests on: every span is
   counted, retained ids are unique and increasing, each span carries
   its scope's id, and the outer id is back after the exception. *)
let nested_trace_ids () =
  with_tracing @@ fun () ->
  let cap0 = Trace.capacity () in
  Fun.protect ~finally:(fun () -> Trace.set_capacity cap0) @@ fun () ->
  Trace.set_capacity 512;
  let emitted = ref 0 in
  let emit id i =
    incr emitted;
    if i mod 3 = 0 then Trace.instant (Printf.sprintf "t%d.i%d" id i)
    else Trace.with_span (Printf.sprintf "t%d.s%d" id i) ignore
  in
  Trace.with_trace_id 1000 (fun () ->
      for i = 1 to 100 do
        emit 1000 i;
        incr emitted;
        Trace.with_span (Printf.sprintf "t1000.w%d" i) (fun () ->
            Trace.with_trace_id 1001 (fun () ->
                emit 1001 i;
                incr emitted;
                (try
                   Trace.with_trace_id 1002 (fun () ->
                       Trace.with_span (Printf.sprintf "t1002.x%d" i) (fun () -> failwith "leave"))
                 with Failure _ -> ());
                Alcotest.(check int) "id back after the exception" 1001 (Trace.current_trace_id ());
                emit 1001 i));
        emit 1000 i
      done);
  Alcotest.(check int) "no id outside every scope" 0 (Trace.current_trace_id ());
  Alcotest.(check int) "total counts every span" !emitted (Trace.total_recorded ());
  if !emitted <= 512 then Alcotest.failf "only %d spans: the ring did not wrap" !emitted;
  let spans = Trace.spans () in
  Alcotest.(check int) "ring holds exactly capacity" 512 (List.length spans);
  ignore
    (List.fold_left
       (fun prev s ->
         if s.Trace.sp_id <= prev then
           Alcotest.failf "span id %d follows %d" s.Trace.sp_id prev;
         s.Trace.sp_id)
       0 spans);
  List.iter
    (fun s ->
      check_contains "span carries its scope's trace id" s.Trace.sp_name
        (Printf.sprintf "t%d." s.Trace.sp_trace))
    spans

let disabled_noop () =
  Trace.clear ();
  Trace.set_enabled false;
  let r = Trace.with_span "ghost" (fun () -> Trace.instant "ghost2"; 7) in
  Alcotest.(check int) "thunk still runs" 7 r;
  Alcotest.(check int) "nothing retained" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "nothing counted" 0 (Trace.total_recorded ())

(* The ring is allocated for use: sizing it with tracing off records the
   size and nothing more, switching tracing on allocates it once, and
   switching off keeps it and its spans. 40,000 slots is a size no other
   test gives the ring, so whichever ring this process already has is
   replaced. *)
let ring_allocated_on_use () =
  Trace.set_enabled false;
  let cap0 = Trace.capacity () in
  Fun.protect ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_capacity cap0;
      Trace.clear ())
  @@ fun () ->
  let bytes w = w *. float (Sys.word_size / 8) in
  let sized = bytes (Tutil.allocated_words (fun () -> Trace.set_capacity 65_536)) in
  if sized >= 1024. then
    Alcotest.failf "sizing the ring with tracing off allocated %.0f bytes" sized;
  Alcotest.(check int) "capacity is the configured size" 65_536 (Trace.capacity ());
  ignore (Trace.spans ());
  Trace.set_capacity 40_000;
  let on = Tutil.allocated_words (fun () -> Trace.set_enabled true) in
  if on < 40_000. || on > 40_100. then
    Alcotest.failf "switching tracing on allocated %.0f words for a 40000-slot ring" on;
  Trace.instant "kept";
  Trace.set_enabled false;
  let names () = List.map (fun s -> s.Trace.sp_name) (Trace.spans ()) in
  Alcotest.(check (list string)) "spans outlive switching off" [ "kept" ] (names ());
  let again = Tutil.allocated_words (fun () -> Trace.set_enabled true) in
  if again > 16. then Alcotest.failf "switching tracing on again allocated %.0f words" again;
  Alcotest.(check (list string)) "and switching on again" [ "kept" ] (names ())

let chrome_json () =
  with_tracing @@ fun () ->
  Trace.with_span ~cat:"demo" ~args:[ ("k", "v\"q") ] "work" (fun () -> ());
  Trace.instant "mark";
  let j = Trace.to_chrome_json () in
  check_contains "doc" j "\"traceEvents\"";
  check_contains "complete event" j "\"ph\":\"X\"";
  check_contains "instant event" j "\"ph\":\"i\"";
  check_contains "escaped arg" j "v\\\"q";
  let path = Filename.temp_file "ode_trace" ".json" in
  Fun.protect
    (fun () ->
      Trace.dump path;
      let written = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "dump writes to_chrome_json" j written)
    ~finally:(fun () -> Sys.remove path)

(* -- histograms ------------------------------------------------------------ *)

let histogram_buckets () =
  List.iter
    (fun (ns, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket(%d)" ns) want (Histogram.bucket_index ns))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (1023, 9); (1024, 10) ]

let histogram_percentiles () =
  let h = Histogram.create "test.obs.percentiles" in
  Histogram.reset h;
  for _ = 1 to 90 do
    Histogram.observe h 10
  done;
  for _ = 1 to 10 do
    Histogram.observe h 100_000
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "max" 100_000 (Histogram.max_ns h);
  (* 10ns lands in bucket [8,15]: the p50 estimate is that bucket's upper
     bound; the tail percentiles clamp to the observed max. *)
  Alcotest.(check int) "p50" 15 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p95" 100_000 (Histogram.percentile h 95.0);
  Alcotest.(check int) "p99" 100_000 (Histogram.percentile h 99.0);
  let mean = Histogram.mean_ns h in
  assert (mean > 10_000.0 && mean < 11_000.0);
  check_contains "summary row" (Histogram.summary ()) "test.obs.percentiles";
  Histogram.reset h

(* `.metrics reset` drains with [rows ()] and then [reset_all ()]:
   interleaved with observations, every observation lands in exactly one
   drained row or in the residue. *)
let histogram_interleaved_drain () =
  let h = Histogram.create "test.obs.drain" in
  Histogram.reset h;
  let rng = Random.State.make [| 39 |] in
  let observed = ref 0 and observed_sum = ref 0 in
  let drained = ref 0 and drained_sum = ref 0 in
  for _ = 1 to 50 do
    for _ = 1 to Random.State.int rng 400 do
      let v = Random.State.int rng 1_000_000 in
      Histogram.observe h v;
      incr observed;
      observed_sum := !observed_sum + v
    done;
    let r = List.find (fun r -> r.Histogram.r_name = "test.obs.drain") (Histogram.rows ()) in
    Histogram.reset_all ();
    drained := !drained + r.Histogram.r_count;
    drained_sum := !drained_sum + r.Histogram.r_sum_ns
  done;
  for v = 1 to 123 do
    Histogram.observe h v;
    incr observed;
    observed_sum := !observed_sum + v
  done;
  let residue = Histogram.snapshot h in
  Histogram.reset h;
  Alcotest.(check int) "drained counts plus residue" !observed (!drained + residue.Histogram.r_count);
  Alcotest.(check int) "drained sums plus residue" !observed_sum
    (!drained_sum + residue.Histogram.r_sum_ns)

(* -- stats registry -------------------------------------------------------- *)

let stats_registry () =
  (* find-or-create: registering an existing name returns its slot *)
  let pages_read = Stats.counter "pages_read" and probes = Stats.counter "index_probes" in
  let before = Stats.snapshot () in
  Stats.incr pages_read;
  Stats.incr probes;
  Stats.add probes 1;
  let after = Stats.snapshot () in
  let d = Stats.diff after before in
  Alcotest.(check int) "get by name" 1 (Stats.get d "pages_read");
  Alcotest.(check int) "probes" 2 (Stats.get d "index_probes");
  Alcotest.(check int) "unknown name" 0 (Stats.get d "no_such_counter");
  let names = List.map fst (Stats.to_list d) in
  Alcotest.(check (list string)) "to_list follows registration order" (Stats.registered ()) names;
  (* pp is derived from the registry: every workload counter appears *)
  let pp = Fmt.str "%a" Stats.pp d in
  check_contains "pp" pp "pages_read 1";
  check_contains "pp" pp "index_probes 2";
  let z = Stats.zero () in
  Stats.accum ~into:z after before;
  Alcotest.(check int) "accum" 1 (Stats.get z "pages_read")

(* Every counter the engine registers, with its group and kind. The owning
   modules register their own counters, so this list is what catches a
   renamed, regrouped or dropped registration: `.stats`, `.recovery` and
   `/metrics` print exactly these names. *)
let expected_counters =
  let open Stats in
  [
    ("pages_read", Workload, Counter); ("pages_written", Workload, Counter);
    ("pool_hits", Workload, Counter); ("pool_misses", Workload, Counter);
    ("wal_appends", Workload, Counter); ("wal_syncs", Workload, Counter);
    ("wal_sync_saved", Workload, Counter); ("index_probes", Workload, Counter);
    ("objects_scanned", Workload, Counter); ("objects_fetched", Workload, Counter);
    ("constraints_checked", Workload, Counter); ("triggers_fired", Workload, Counter);
    ("triggers_evaluated", Workload, Counter);
    ("wal_torn_bytes", Recovery, Counter); ("recovery_replayed", Recovery, Counter);
    ("checksum_failures", Recovery, Counter); ("orphans_reclaimed", Recovery, Counter);
    ("journal_pages_restored", Recovery, Counter); ("io_retries", Recovery, Counter);
    ("cursor_pages_read", Workload, Counter); ("bptree.leaf_writes", Workload, Counter);
    ("bptree.splits", Workload, Counter); ("bptree.family_appends", Workload, Counter);
    ("server.accepts", Workload, Counter);
    ("server.requests", Workload, Counter); ("server.rejects", Workload, Counter);
    ("server.timeouts", Workload, Counter); ("server.bytes_in", Workload, Counter);
    ("server.bytes_out", Workload, Counter);
    ("server.accept_backoffs", Workload, Counter); ("repl.batches_sent", Workload, Counter);
    ("repl.batches_applied", Workload, Counter); ("repl.bytes_sent", Workload, Counter);
    ("repl.snapshots_sent", Workload, Counter); ("repl.acks", Workload, Counter);
    ("repl.resyncs", Workload, Counter); ("repl.dup_batches", Workload, Counter);
    ("repl.sync_degraded", Workload, Counter); ("repl.lag_commits", Workload, Gauge);
    ("repl.lag_bytes", Workload, Gauge); ("txn.conflicts", Workload, Counter);
    ("txn.begins", Workload, Counter); ("planner.stats_hits", Workload, Counter);
    ("planner.fallbacks", Workload, Counter); ("planner.analyze_runs", Workload, Counter);
    ("planner.fused_joins", Workload, Counter); ("planner.hash_joins", Workload, Counter);
    ("planner.nested_joins", Workload, Counter); ("errors.conflict", Workload, Counter);
    ("errors.redirect", Workload, Counter); ("errors.user", Workload, Counter);
    ("errors.resource", Workload, Counter); ("errors.corrupt", Workload, Counter);
    ("errors.internal", Workload, Counter);
  ]

let stats_golden_registry () =
  let sorted l = List.sort compare l in
  (* names first: [Stats.counter] below would create a missing one *)
  Alcotest.(check (list string))
    "registered names"
    (sorted (List.map (fun (n, _, _) -> n) expected_counters))
    (sorted (Stats.registered ()));
  List.iter
    (fun (name, group, kind) ->
      match Stats.counter ~group ~kind name with
      | _ -> ()
      | exception Invalid_argument _ -> Alcotest.failf "%s: registered with another group or kind" name)
    expected_counters;
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool)
    "other group raises" true
    (raises (fun () -> Stats.counter ~group:Stats.Recovery "pages_read"));
  Alcotest.(check bool) "other kind raises" true (raises (fun () -> Stats.counter ~kind:Stats.Gauge "pages_read"));
  Alcotest.(check bool) "a gauge is not a counter" true (raises (fun () -> Stats.counter "repl.lag_commits"))

(* -- metrics exposition ---------------------------------------------------- *)

let prometheus_exposition () =
  let h = Histogram.create "test.obs.expo" in
  Histogram.reset h;
  Histogram.observe h 1000;
  Histogram.observe h 2000;
  Stats.register_gauge "test.gauge_ok" (fun () -> 42);
  Stats.register_gauge "test.gauge_raises" (fun () -> failwith "sampler died");
  Fun.protect
    ~finally:(fun () ->
      Stats.unregister_gauge "test.gauge_ok";
      Stats.unregister_gauge "test.gauge_raises";
      Histogram.reset h)
  @@ fun () ->
  let text = Ode_util.Metrics.prometheus () in
  check_contains "sampled gauge" text "ode_test_gauge_ok 42";
  check_contains "raising sampler reads 0" text "ode_test_gauge_raises 0";
  check_contains "counter TYPE" text "# TYPE ode_server_requests counter";
  check_contains "lag slot is a gauge" text "# TYPE ode_repl_lag_commits gauge";
  check_contains "histogram p50" text "ode_test_obs_expo_ns{quantile=\"0.5\"}";
  check_contains "histogram p95" text "ode_test_obs_expo_ns{quantile=\"0.95\"}";
  check_contains "histogram p99" text "ode_test_obs_expo_ns{quantile=\"0.99\"}";
  check_contains "histogram sum" text "ode_test_obs_expo_ns_sum 3000";
  check_contains "histogram count" text "ode_test_obs_expo_ns_count 2";
  (* A count exports without the duration suffix. *)
  check_contains "count histogram" text "# TYPE ode_wal_group_size summary";
  if contains text "ode_wal_group_size_ns" then Alcotest.fail "a count exported as nanoseconds";
  (* Parseability: every non-comment line is `name[{labels}] value` with a
     numeric value — the contract a Prometheus scraper relies on. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "unparseable exposition line %S" line
           | Some i -> (
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some _ -> ()
               | None -> Alcotest.failf "non-numeric value in %S" line))

(* A count histogram renders as plain numbers in the [.metrics] table and
   the JSON snapshot, where a duration carries its unit. *)
let histogram_count_measure () =
  let h = Histogram.create ~measure:Histogram.Count "test.obs.count" in
  Histogram.reset h;
  Histogram.observe h 3;
  Histogram.observe h 5;
  Fun.protect ~finally:(fun () -> Histogram.reset h) @@ fun () ->
  let row =
    List.find
      (fun l -> contains l "test.obs.count")
      (String.split_on_char '\n' (Histogram.summary ()))
  in
  Alcotest.(check (list string))
    "count, p50, p95, p99, max, mean"
    [ "test.obs.count"; "2"; "3"; "5"; "5"; "5"; "4" ]
    (List.filter (( <> ) "") (String.split_on_char ' ' row));
  check_contains "json" (Ode_util.Metrics.json ())
    "\"test.obs.count\":{\"count\":2,\"sum\":8,\"max\":5,\"p50\":3,";
  Alcotest.(check string)
    "a duration keeps its unit" "15ns"
    (Histogram.format Histogram.Nanoseconds 15)

let metrics_json_shape () =
  Stats.register_gauge "test.gauge_json" (fun () -> 7)
  ;
  Fun.protect ~finally:(fun () -> Stats.unregister_gauge "test.gauge_json") @@ fun () ->
  let j = Ode_util.Metrics.json () in
  check_contains "counters object" j "\"counters\":{";
  check_contains "gauges object" j "\"gauges\":{";
  check_contains "histograms object" j "\"histograms\":{";
  check_contains "gauge value" j "\"test.gauge_json\":7";
  check_contains "request histogram" j "\"server.request\":{"

(* Satellite: `.stats` output is name-sorted, not registration-ordered, so
   fresh-open and post-recovery sessions print comparable reports. *)
let stats_sorted_output () =
  let pp = Fmt.str "%a" Stats.pp (Stats.snapshot ()) in
  let is_number tok = tok <> "" && float_of_string_opt tok <> None in
  let names =
    String.split_on_char ' ' pp
    |> List.filter (fun tok -> tok <> "" && not (is_number tok))
  in
  if List.length names < 10 then Alcotest.failf "suspiciously few counters in %S" pp;
  Alcotest.(check (list string)) "names sorted" (List.sort compare names) names

(* -- slow-query log -------------------------------------------------------- *)

let slowlog_basics () =
  let dir = Tutil.temp_dir "ode-slowlog" in
  let path = Filename.concat dir "slow.log" in
  Ode_util.Slowlog.configure ~log_path:path ~log_max_bytes:4096 ~keep:4 ~threshold_ms:5 ();
  Fun.protect ~finally:(fun () -> Ode_util.Slowlog.disarm ()) @@ fun () ->
  Alcotest.(check bool) "armed" true (Ode_util.Slowlog.armed ());
  Alcotest.(check int) "threshold in ns" 5_000_000 (Ode_util.Slowlog.threshold_ns ());
  for i = 1 to 6 do
    Ode_util.Slowlog.record ~dur_ns:(i * 1000) (Printf.sprintf "{\"n\":%d}" i)
  done;
  (* the ring keeps the newest [keep]; [worst] sorts by duration, worst
     first *)
  Alcotest.(check int) "retained" 4 (Ode_util.Slowlog.retained ());
  Alcotest.(check (list string))
    "worst first" [ "{\"n\":6}"; "{\"n\":5}" ]
    (Ode_util.Slowlog.worst 2);
  (* the file keeps everything, one JSON line per entry *)
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "file lines" 6 (List.length lines);
  Alcotest.(check string) "first line" "{\"n\":1}" (List.hd lines);
  (* rotation: push past the byte cap; the old generation lands in .1 *)
  Ode_util.Slowlog.record ~dur_ns:1
    (Printf.sprintf "{\"pad\":\"%s\"}" (String.make 4200 'x'));
  Ode_util.Slowlog.record ~dur_ns:1 "{\"after\":1}";
  Alcotest.(check bool) "rotated generation exists" true (Sys.file_exists (path ^ ".1"));
  let fresh = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check (list string)) "fresh file holds post-rotation entry" [ "{\"after\":1}" ] fresh;
  (* disarm drops the threshold back to never *)
  Ode_util.Slowlog.disarm ();
  Alcotest.(check bool) "disarmed" false (Ode_util.Slowlog.armed ())

(* -- EXPLAIN ANALYZE ------------------------------------------------------- *)

let stockitem_db () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:(fun _ -> ()) db in
  (match
     Shell.exec_catching shell
       {|
       class supplier { sname: string; city: string; };
       class stockitem { name: string; qty: int; price: float; sup: ref supplier; };
       create cluster supplier;
       create cluster stockitem;
       s := pnew supplier { sname = "att", city = "berkeley hts" };
       i := pnew stockitem { name = "512 dram", qty = 3, price = 5.0, sup = s };
       j := pnew stockitem { name = "256 dram", qty = 100, price = 2.0, sup = s };
       |}
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup failed: %s" e.msg);
  (db, shell)

let reorder_suchthat () =
  match Ode_lang.Parser.program "explain forall x in stockitem suchthat x.qty < 50;" with
  | [ Ode_lang.Ast.TExplain f ] -> f.Ode_lang.Ast.q_suchthat
  | _ -> Alcotest.fail "unexpected parse"

let profile_attribution () =
  let db, _shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let pf =
    Query.profile db ~var:"x" ~cls:"stockitem" ?suchthat:(reorder_suchthat ()) ()
  in
  Alcotest.(check int) "rows" 1 pf.Query.pf_rows;
  check_contains "plan" pf.Query.pf_plan "full scan of cluster stockitem";
  (* exact attribution: per-node time and counters sum to the query totals *)
  let sum_ns =
    List.fold_left (fun acc n -> acc + n.Query.ns_ns) 0 pf.Query.pf_nodes
  in
  Alcotest.(check int) "node times sum to total" pf.Query.pf_total_ns sum_ns;
  List.iter
    (fun (name, total) ->
      let s =
        List.fold_left
          (fun acc n -> acc + Stats.get n.Query.ns_stats name)
          0 pf.Query.pf_nodes
      in
      Alcotest.(check int) (name ^ " sums to total") total s)
    (Stats.to_list pf.Query.pf_stats);
  (* both objects are scanned, one survives the predicate *)
  let node op =
    List.find (fun n -> Ode.Planner.op_name n.Query.ns_op = op) pf.Query.pf_nodes
  in
  Alcotest.(check int) "scan candidates" 2 (node "scan").Query.ns_rows;
  Alcotest.(check int) "filter survivors" 1 (node "filter").Query.ns_rows;
  Alcotest.(check int) "output rows" 1 (node "output").Query.ns_rows;
  Alcotest.(check int)
    "scan work attributed" 2
    (Stats.get pf.Query.pf_stats "objects_scanned");
  let rendered = Query.profile_to_string pf in
  check_contains "rendered plan" rendered "plan: full scan";
  check_contains "rendered filter" rendered "filter";
  check_contains "rendered total" rendered "total"

let profile_emits_spans () =
  let db, _shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  with_tracing @@ fun () ->
  Query.run db ~var:"x" ~cls:"stockitem" ?suchthat:(reorder_suchthat ()) ignore;
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans ()) in
  if not (List.mem "query.execute" names) then
    Alcotest.failf "no query.execute span in %s" (String.concat "," names)

(* -- shell dot commands ---------------------------------------------------- *)

let dot_shell () =
  let db, shell = stockitem_db () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      Trace.set_enabled false;
      Trace.clear ())
  @@ fun () ->
  let dot line =
    match Shell.dot_command shell line with
    | Some out -> out
    | None -> Alcotest.failf "%S not handled" line
  in
  Alcotest.(check (option string)) "non-dot" None (Shell.dot_command shell "print 1;");
  check_contains ".help" (dot ".help") ".profile";
  check_contains ".stats" (dot ".stats") "pages_read";
  Alcotest.(check string) ".stats reset" "counters reset" (dot "  .stats reset ");
  check_contains ".recovery" (dot ".recovery") "recovery_replayed";
  check_contains ".metrics" (dot ".metrics") "p50";
  Alcotest.(check string) ".trace on" "tracing on" (dot ".trace on");
  assert (Trace.enabled ());
  check_contains ".explain" (dot ".explain forall x in stockitem suchthat x.qty < 50")
    "full scan of cluster stockitem";
  check_contains ".profile"
    (dot ".profile forall x in stockitem suchthat x.qty < 50 { print x.name; };")
    "filter";
  let path = Filename.temp_file "ode_dot_trace" ".json" in
  Fun.protect
    (fun () ->
      check_contains ".trace dump" (dot (".trace dump " ^ path)) "wrote";
      let written = In_channel.with_open_text path In_channel.input_all in
      check_contains "dump file" written "\"traceEvents\"")
    ~finally:(fun () -> Sys.remove path);
  Alcotest.(check string) ".trace off" "tracing off" (dot ".trace off");
  check_contains ".trace status" (dot ".trace") "tracing off";
  check_contains "bad query" (dot ".profile nonsense") "expected";
  check_contains "unknown" (dot ".bogus") "unknown command"

let dot_profile_body_binding () =
  (* .profile with a body must not clobber an existing shell variable *)
  let db, shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  (match Shell.exec_catching shell "x := 99;" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e.msg);
  (match Shell.dot_command shell ".profile forall x in stockitem { print x.name; };" with
  | Some _ -> ()
  | None -> Alcotest.fail "not handled");
  match List.assoc_opt "x" (Shell.vars shell) with
  | Some (Ode_model.Value.Int 99) -> ()
  | _ -> Alcotest.fail "outer binding of x was not restored"

(* A nested forall the planner fuses is profiled as the join that runs:
   [.profile] names the fused strategy and its output rows are the pairs. *)
let profile_fused_join () =
  let db, shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let q = "forall i in stockitem { forall s in supplier suchthat s == i.sup { print s.sname; } }" in
  let dot = Option.get (Shell.dot_command shell (".profile " ^ q)) in
  check_contains ".profile names the strategy" dot "fused join: deref i.sup";
  let pf =
    Db.with_txn db (fun txn ->
        match Ode_lang.Parser.program (q ^ ";") with
        | [ TStmt (SForall f) ] -> Ode.Interp.profile_forall txn (Ode.Interp.env ~print:ignore ()) f
        | _ -> Alcotest.fail "unexpected parse")
  in
  Alcotest.(check int) "output rows are pairs" 2 pf.Query.pf_rows;
  check_contains "plan" pf.Query.pf_plan "fused join: deref i.sup";
  Alcotest.(check int) "node times sum to total" pf.Query.pf_total_ns
    (List.fold_left (fun acc n -> acc + n.Query.ns_ns) 0 pf.Query.pf_nodes)

(* One statement is one query: a nested-loop join records one
   [query.execute] sample, and under the armed slow log the stashed
   profile describes the join, not its last inner loop. The link hides
   in a disjunction so no fused strategy applies and the inner loop
   really runs once per outer row. *)
let one_observation_per_join () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:ignore db in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      Ode_util.Slowlog.disarm ())
  @@ fun () ->
  let run src = match Shell.exec_catching shell src with Ok () -> () | Error e -> Alcotest.fail e.msg in
  run
    {|class dept { dname: string; };
      class emp { ename: string; works: string; };
      create cluster dept;
      create cluster emp;
      pnew dept { dname = "eng" };
      pnew emp { ename = "a", works = "eng" };
      pnew emp { ename = "b", works = "ops" };
      pnew emp { ename = "c", works = "eng" };|};
  let join =
    "forall d in dept { forall e in emp suchthat e.works == d.dname || 1 == 2 { print e.ename; } };"
  in
  let samples () = Histogram.count (Option.get (Histogram.find "query.execute")) in
  let before = samples () in
  run join;
  Alcotest.(check int) "one sample per join statement" (before + 1) (samples ());
  Ode_util.Slowlog.configure ~threshold_ms:0 ();
  ignore (Query.take_last_profile ());
  run join;
  match Query.take_last_profile () with
  | None -> Alcotest.fail "no profile stashed under the armed slow log"
  | Some pf ->
      Alcotest.(check int) "pairs" 2 pf.Query.pf_rows;
      check_contains "slow-log plan" (Query.profile_to_json pf)
        "\"plan\":\"nested-loop join (inner emp replanned per outer row)"

(* Armed observability adds O(1) work per statement, not per candidate:
   with the tracer on and the slow log armed every query runs
   light-profiled, which counts rows per operator and reads the clock and
   the counters only at the query boundaries. The gate is the armed run's
   extra minor-heap allocation per candidate, taken as the slope between a
   scan of [n] and one of 8 [n] rows so the per-statement constant
   cancels. The only per-candidate cost armed is the tracer's
   [bptree.find] span for each visibility probe, 15.1 words; a
   [Stats.snapshot] per candidate (a word per registered counter) breaks
   the bound. *)
let armed_cost_per_candidate () =
  let n = 500 in
  let db = Db.open_in_memory () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      Ode_util.Slowlog.disarm ();
      Trace.set_enabled false;
      Trace.clear ())
  @@ fun () ->
  ignore (Db.define db "class small { k: int; }; class big { k: int; };");
  Db.create_cluster db "small";
  Db.create_cluster db "big";
  Db.with_txn db (fun txn ->
      for i = 1 to 8 * n do
        if i <= n then ignore (Db.pnew txn "small" [ ("k", Ode_model.Value.Int i) ]);
        ignore (Db.pnew txn "big" [ ("k", Ode_model.Value.Int i) ])
      done);
  let suchthat = Ode_lang.Parser.expr "x.k % 3 == 0" in
  let words cls =
    let w0 = Gc.minor_words () in
    Query.run db ~var:"x" ~cls ~suchthat ignore;
    Gc.minor_words () -. w0
  in
  (* Warm the pools so both measured passes do the same work. *)
  ignore (words "small");
  ignore (words "big");
  let slope () =
    let small = words "small" in
    let big = words "big" in
    (big -. small) /. float (7 * n)
  in
  let dark = slope () in
  Trace.set_enabled true;
  Ode_util.Slowlog.configure ~threshold_ms:1_000_000 ();
  let armed = slope () in
  let extra = armed -. dark in
  if extra > 20.0 then
    Alcotest.failf "armed observability allocates %.2f extra words per candidate (dark %.2f)"
      extra dark

(* `.metrics reset` reports how many observations it drained and leaves
   every histogram empty. *)
let dot_metrics_reset () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:ignore db in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  Histogram.reset_all ();
  let a = Histogram.create "test.obs.reset_a" and b = Histogram.create "test.obs.reset_b" in
  for i = 1 to 4 do
    Histogram.observe a i
  done;
  for i = 1 to 3 do
    Histogram.observe b (i * 1000)
  done;
  Alcotest.(check (option string))
    ".metrics reset" (Some "histograms reset (7 observations drained)")
    (Shell.dot_command shell ".metrics reset");
  List.iter
    (fun r -> Alcotest.(check int) (r.Histogram.r_name ^ " after reset") 0 r.Histogram.r_count)
    (Histogram.rows ())

(* A served statement's text reaches the slow-query log as one JSON
   string: quote, backslash, newline, tab and a control byte escaped. *)
let slowlog_escapes_statement () =
  let db = Db.open_in_memory () in
  Ode_util.Slowlog.configure ~keep:4 ~threshold_ms:0 ();
  Fun.protect
    ~finally:(fun () ->
      Ode_util.Slowlog.disarm ();
      Db.close db)
  @@ fun () ->
  let session = Ode_served.Session.create db in
  let src = {|print "a\"b\\c|} ^ "\n\t\001" ^ {|";|} in
  ignore
    (Ode_served.Session.handle session
       { Ode_served.Protocol.rq_id = 1; rq_trace = 0; rq_op = Exec src });
  match Ode_util.Slowlog.worst 1 with
  | [ entry ] ->
      check_contains "escaped statement" entry
        ({|"statement":"|} ^ {|print \"a\\\"b\\\\c\n\t\u0001\";|} ^ {|","exec_ns":|})
  | l -> Alcotest.failf "expected 1 slow-log entry, got %d" (List.length l)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and ordering" `Quick span_nesting;
        Alcotest.test_case "span records on exception" `Quick span_exception_safe;
        Alcotest.test_case "clock resolves nanoseconds" `Quick clock_resolves_nanoseconds;
        Alcotest.test_case "ring buffer wraparound" `Quick ring_wraparound;
        Alcotest.test_case "nested trace ids" `Quick nested_trace_ids;
        Alcotest.test_case "disabled tracer is a no-op" `Quick disabled_noop;
        Alcotest.test_case "ring allocated when tracing is on" `Quick ring_allocated_on_use;
        Alcotest.test_case "chrome trace JSON export" `Quick chrome_json;
        Alcotest.test_case "histogram bucket boundaries" `Quick histogram_buckets;
        Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
        Alcotest.test_case "histogram interleaved drain" `Quick histogram_interleaved_drain;
        Alcotest.test_case "stats registry round-trip" `Quick stats_registry;
        Alcotest.test_case "stats registry golden names" `Quick stats_golden_registry;
        Alcotest.test_case "prometheus exposition" `Quick prometheus_exposition;
        Alcotest.test_case "metrics json shape" `Quick metrics_json_shape;
        Alcotest.test_case "histogram of a count" `Quick histogram_count_measure;
        Alcotest.test_case "stats output name-sorted" `Quick stats_sorted_output;
        Alcotest.test_case "slow-query log basics" `Quick slowlog_basics;
        Alcotest.test_case "slow-log statement escaped" `Quick slowlog_escapes_statement;
        Alcotest.test_case "profile attribution sums exactly" `Quick profile_attribution;
        Alcotest.test_case "tracing emits query spans" `Quick profile_emits_spans;
        Alcotest.test_case "shell dot commands" `Quick dot_shell;
        Alcotest.test_case "metrics reset drains" `Quick dot_metrics_reset;
        Alcotest.test_case "profile restores loop binding" `Quick dot_profile_body_binding;
        Alcotest.test_case "profile of a fused join" `Quick profile_fused_join;
        Alcotest.test_case "one observation per join statement" `Quick one_observation_per_join;
        Alcotest.test_case "armed observability is O(1) per statement" `Quick
          armed_cost_per_candidate;
      ] );
  ]
