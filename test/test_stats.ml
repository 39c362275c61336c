(* Planner statistics: histogram selectivity on skewed data, persistence
   through close/reopen, crash recovery and logical dumps, staleness
   fallback, and the cost-based plan switching they enable. *)

module Db = Ode.Database
module Query = Ode.Query
module Planner = Ode.Planner
module Dump = Ode.Dump
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let int n = Value.Int n
let str s = Value.Str s

(* One extent with two indexed int fields: [a] heavily skewed (150 copies of
   1, the rest unique), [b] uniform and unique. 180 objects total. *)
let setup_skewed db =
  ignore (Db.define db "class item { a: int; b: int; };");
  Db.create_cluster db "item";
  Db.create_index db ~cls:"item" ~field:"a";
  Db.create_index db ~cls:"item" ~field:"b";
  Db.with_txn db (fun txn ->
      for i = 0 to 179 do
        let a = if i < 150 then 1 else 1000 + i in
        ignore (Db.pnew txn "item" [ ("a", int a); ("b", int i) ])
      done)

let plan db src =
  Planner.plan db ~var:"x" ~cls:"item" ~deep:false ~suchthat:(Some (Parser.expr src)) ()

let exact db src =
  Db.with_txn db (fun txn ->
      Query.count db ~txn ~var:"x" ~cls:"item" ~suchthat:(Parser.expr src) ())

(* Histogram estimates must track exact counts on skewed data: within 2x for
   the heavy value, and not confusing heavy with rare. *)
let selectivity_tracks_skew () =
  let db = Db.open_in_memory () in
  setup_skewed db;
  ignore (Db.analyze db);
  let est src = (plan db src).Planner.p_est.Planner.est_out in
  let heavy_exact = float_of_int (exact db "x.a == 1") in
  let heavy_est = est "x.a == 1" in
  Tutil.check_bool
    (Printf.sprintf "heavy estimate %.0f within 2x of exact %.0f" heavy_est heavy_exact)
    true
    (heavy_est >= heavy_exact /. 2.0 && heavy_est <= heavy_exact *. 2.0);
  let rare_est = est "x.a == 1105" in
  Tutil.check_bool
    (Printf.sprintf "rare estimate %.0f stays small" rare_est)
    true (rare_est <= 20.0);
  Tutil.check_bool "heavy ≫ rare" true (heavy_est > rare_est *. 5.0);
  (* Range estimate over roughly half the b domain. *)
  let half_est = est "x.b < 90" in
  let half_exact = float_of_int (exact db "x.b < 90") in
  Tutil.check_bool
    (Printf.sprintf "range estimate %.0f within 2x of exact %.0f" half_est half_exact)
    true
    (half_est >= half_exact /. 2.0 && half_est <= half_exact *. 2.0);
  Db.close db

(* The acceptance demo: priced with default selectivities the two eq
   conjuncts tie and the first one wins; after [analyze] the histograms
   reveal the other conjunct is far more selective and the plan
   switches. *)
let plan_switches_after_analyze () =
  let db = Db.open_in_memory () in
  setup_skewed db;
  let field p =
    match p.Planner.p_access with
    | Planner.Index_eq { field; _ } -> field
    | _ -> "(not an eq probe)"
  in
  let before = plan db "x.a == 1 && x.b == 17" in
  Tutil.check_string "defaults tie, first eq conjunct wins" "a" (field before);
  Tutil.check_bool "default estimate flagged" false before.Planner.p_est.Planner.est_stats;
  ignore (Db.analyze db);
  let after = plan db "x.a == 1 && x.b == 17" in
  Tutil.check_string "cost model picks the selective index" "b" (field after);
  Tutil.check_bool "stats estimate flagged" true after.Planner.p_est.Planner.est_stats;
  (* Both plans return the same rows. *)
  Tutil.check_int "result unchanged" 1 (exact db "x.a == 1 && x.b == 17");
  Db.close db

let analyzed_and_fresh db = Db.stats_analyzed db && not (Db.stats_stale db)

(* Statistics are written through an ordinary transaction, so a clean
   close/reopen and a crash (WAL-tail replay) both restore them. *)
let stats_survive_reopen_and_crash () =
  let dir = Tutil.temp_dir "stats" in
  let db = Db.open_ dir in
  setup_skewed db;
  ignore (Db.analyze db);
  Tutil.check_bool "fresh after analyze" true (analyzed_and_fresh db);
  (* Crash image taken while the db is still open: no clean shutdown. *)
  let snap = Tutil.temp_dir "stats-crash" in
  Sys.rmdir snap;
  Tutil.copy_dir dir snap;
  Db.close db;
  let db2 = Db.open_ dir in
  Tutil.check_bool "fresh after clean reopen" true (analyzed_and_fresh db2);
  Tutil.check_bool "histograms restored" true
    (plan db2 "x.a == 1 && x.b == 17").Planner.p_est.Planner.est_stats;
  Db.close db2;
  let db3 = Db.open_ snap in
  Tutil.check_bool "fresh after crash recovery" true (analyzed_and_fresh db3);
  Db.close db3

(* A logical dump replays [analyze;] at the end, so the restored store
   plans like the source did. *)
let stats_survive_dump () =
  let db = Db.open_in_memory () in
  setup_skewed db;
  ignore (Db.analyze db);
  let script = Dump.export db in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Tutil.check_bool "dump carries analyze" true (contains script "analyze;");
  let db2 = Db.open_in_memory () in
  Dump.import db2 script;
  Tutil.check_bool "fresh after import" true (analyzed_and_fresh db2);
  Tutil.check_int "objects restored" 150 (exact db2 "x.a == 1");
  Db.close db;
  Db.close db2

(* Enough churn after analyze flips [stale]: the histograms stop
   answering, the planner prices with default selectivities, and the two
   eq conjuncts tie again (the first wins). *)
let stale_stats_fall_back () =
  let db = Db.open_in_memory () in
  setup_skewed db;
  ignore (Db.analyze db);
  Tutil.check_bool "fresh" true (analyzed_and_fresh db);
  (* Threshold is max 100 (base/5); base is ~180 here, so 101 creates
     cross it. *)
  Db.with_txn db (fun txn ->
      for i = 0 to 100 do
        ignore (Db.pnew txn "item" [ ("a", int (5000 + i)); ("b", int (5000 + i)) ])
      done);
  Tutil.check_bool "stale after churn" true (Db.stats_stale db);
  let p = plan db "x.a == 1 && x.b == 17" in
  Tutil.check_bool "estimate no longer from stats" false p.Planner.p_est.Planner.est_stats;
  (match p.Planner.p_access with
  | Planner.Index_eq { field; _ } -> Tutil.check_string "default pricing restored" "a" field
  | _ -> Alcotest.fail "expected an eq probe");
  (* Re-analyzing refreshes. *)
  ignore (Db.analyze db);
  Tutil.check_bool "fresh again" true (analyzed_and_fresh db);
  Db.close db

(* Without any analyze the planner must still work (and say so). *)
let absent_stats_use_defaults () =
  let db = Db.open_in_memory () in
  setup_skewed db;
  Tutil.check_bool "not analyzed" false (Db.stats_analyzed db);
  Tutil.check_bool "stale by definition" true (Db.stats_stale db);
  let p = plan db "x.b == 17" in
  Tutil.check_bool "default estimate" false p.Planner.p_est.Planner.est_stats;
  Tutil.check_bool "still plans a probe" true
    (match p.Planner.p_access with Planner.Index_eq _ -> true | _ -> false);
  Db.close db

(* -- join planning over statistics ----------------------------------------- *)

let setup_join db ~emps =
  ignore
    (Db.define db
       {|class dept { dname: string; head: ref dept; };
         class emp { ename: string; works: string; boss: ref dept; team: set<int>; };|});
  Db.create_cluster db "dept";
  Db.create_cluster db "emp";
  let d1, d2 =
    Db.with_txn db (fun txn ->
        let d1 = Db.pnew txn "dept" [ ("dname", str "eng") ] in
        let d2 = Db.pnew txn "dept" [ ("dname", str "ops") ] in
        (d1, d2))
  in
  Db.with_txn db (fun txn ->
      for i = 0 to emps - 1 do
        let d = if i mod 2 = 0 then "eng" else "ops" in
        let boss = if i mod 2 = 0 then d1 else d2 in
        ignore
          (Db.pnew txn "emp"
             [ ("ename", str (Printf.sprintf "e%d" i)); ("works", str d);
               ("boss", Value.Ref boss) ])
      done)

let join_plan db ?(inner_st = "e.works == d.dname") () =
  Planner.plan_join db ~outer:("d", "dept", false) ~inner:("e", "emp", false)
    ~inner_suchthat:(Parser.expr inner_st) ()

let join_strategy_selection () =
  let db = Db.open_in_memory () in
  setup_join db ~emps:60;
  (* Field-equality link without statistics: priced with the default
     cardinality (1000 per extent) and selectivity, one build pass beats
     rescanning the unindexed inner extent per outer row. *)
  let cold = join_plan db () in
  (match cold.Planner.j_strategy with
  | Planner.Hash_join { outer_field = "dname"; inner_field = "works" } -> ()
  | _ -> Alcotest.fail "expected a hash join priced from defaults");
  Tutil.check_bool "hash join priced below the nested loop" true
    (cold.Planner.j_cost < cold.Planner.j_nested_cost);
  Tutil.check_bool "priced from defaults" false cold.Planner.j_stats;
  (* Deref and membership links fuse with or without statistics. *)
  (match
     (Planner.plan_join db ~outer:("e", "emp", false) ~inner:("d", "dept", false)
        ~inner_suchthat:(Parser.expr "d == e.boss") ())
       .Planner.j_strategy
   with
  | Planner.Fused_deref "boss" -> ()
  | _ -> Alcotest.fail "expected deref fusion via e.boss");
  ignore (Db.analyze db);
  (* With fresh statistics the one-pass hash build beats rescanning 60
     employees per department. *)
  (match (join_plan db ()).Planner.j_strategy with
  | Planner.Hash_join { outer_field = "dname"; inner_field = "works" } -> ()
  | _ -> Alcotest.fail "expected a hash join after analyze");
  (* A set-typed field can never key a hash join. *)
  (match (join_plan db ~inner_st:"e.team == d.head" ()).Planner.j_strategy with
  | Planner.Hash_join _ -> Alcotest.fail "hash join on a set-typed field"
  | _ -> ());
  Db.close db

(* Every strategy must emit exactly the nested loop's pairs. *)
let fused_joins_match_nested () =
  let db = Db.open_in_memory () in
  setup_join db ~emps:40;
  let pairs ?outer_suchthat ?inner_suchthat () =
    let acc = ref [] in
    Query.run_join db ~outer:("d", "dept", false) ~inner:("e", "emp", false) ?outer_suchthat
      ?inner_suchthat
      (fun o i -> acc := (o, i) :: !acc);
    List.sort compare !acc
  in
  let nested_pairs ?outer_suchthat ?inner_suchthat () =
    let acc = ref [] in
    Query.run db ~var:"d" ~cls:"dept" ?suchthat:outer_suchthat (fun o ->
        Query.run db
          ~env:[ ("d", Value.Ref o) ]
          ~var:"e" ~cls:"emp" ?suchthat:inner_suchthat
          (fun i -> acc := (o, i) :: !acc));
    List.sort compare !acc
  in
  let cases =
    [
      (None, Some (Parser.expr "e.works == d.dname"));
      (None, Some (Parser.expr "e.boss == d"));
      (Some (Parser.expr "d.dname == \"eng\""), Some (Parser.expr "e.works == d.dname && e.ename != \"e2\""));
    ]
  in
  let check () =
    List.iter
      (fun (o_st, i_st) ->
        let a = pairs ?outer_suchthat:o_st ?inner_suchthat:i_st () in
        let b = nested_pairs ?outer_suchthat:o_st ?inner_suchthat:i_st () in
        Tutil.check_int "pair sets agree" (List.length b) (List.length a);
        Tutil.check_bool "same pairs" true (a = b))
      cases
  in
  check ();
  ignore (Db.analyze db);
  check ();
  Db.close db

(* Per-node attribution must stay exact for stats-priced plans too: the
   node sums equal the query totals, and every node label carries its
   estimate. *)
let profile_sums_with_stats () =
  let db = Db.open_in_memory () in
  setup_skewed db;
  ignore (Db.analyze db);
  let pf =
    Db.with_txn db (fun txn ->
        Query.profile db ~txn ~var:"x" ~cls:"item"
          ~suchthat:(Parser.expr "x.a == 1 && x.b < 40") ())
  in
  let node_ns = List.fold_left (fun acc n -> acc + n.Query.ns_ns) 0 pf.Query.pf_nodes in
  Tutil.check_int "node time sums to total" pf.Query.pf_total_ns node_ns;
  Tutil.check_bool "labels carry estimates" true
    (List.for_all
       (fun n ->
         match n.Query.ns_op with
         | Ode.Planner.Scan _ | Probe _ | Range _ | Filter _ -> String.contains n.Query.ns_label '~'
         | _ -> true)
       pf.Query.pf_nodes);
  Db.close db

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "selectivity tracks skew" `Quick selectivity_tracks_skew;
        Alcotest.test_case "plan switches after analyze" `Quick plan_switches_after_analyze;
        Alcotest.test_case "survive reopen and crash" `Quick stats_survive_reopen_and_crash;
        Alcotest.test_case "survive logical dump" `Quick stats_survive_dump;
        Alcotest.test_case "stale stats fall back" `Quick stale_stats_fall_back;
        Alcotest.test_case "absent stats use defaults" `Quick absent_stats_use_defaults;
        Alcotest.test_case "join strategy selection" `Quick join_strategy_selection;
        Alcotest.test_case "fused joins match nested" `Quick fused_joins_match_nested;
        Alcotest.test_case "profile sums with stats" `Quick profile_sums_with_stats;
      ] );
  ]
