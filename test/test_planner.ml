(* Access-path selection: which plans the planner picks for which
   predicates. *)

module Db = Ode.Database
module Planner = Ode.Planner
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let setup () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class item { sku: int; qty: int; name: string; tagset: set<int>; };
         class special : item { rank: int; };|});
  Db.create_cluster db "item";
  Db.create_cluster db "special";
  Db.create_index db ~cls:"item" ~field:"qty";
  Db.create_index db ~cls:"special" ~field:"rank";
  db

(* Ranges are priced like every other access path, so the bound-folding
   tests plan over data where a narrow range is the cheapest plan: 1000
   items with [qty] 0..999, analyzed. *)
let setup_analyzed () =
  let db = setup () in
  Db.with_txn db (fun txn ->
      for i = 0 to 999 do
        ignore (Db.pnew txn "item" [ ("sku", Value.Int i); ("qty", Value.Int i) ])
      done);
  ignore (Db.analyze db);
  db

let plan db ?env ?(cls = "item") ?(deep = false) src =
  Planner.plan db ?env ~var:"x" ~cls ~deep ~suchthat:(Some (Parser.expr src)) ()

let is_full p = match p.Planner.p_access with Planner.Full_scan -> true | _ -> false
let is_eq p = match p.Planner.p_access with Planner.Index_eq _ -> true | _ -> false
let is_range p = match p.Planner.p_access with Planner.Index_range _ -> true | _ -> false

let picks_eq_probe () =
  let db = setup () in
  Tutil.check_bool "eq on indexed" true (is_eq (plan db "x.qty == 5"));
  Tutil.check_bool "mirrored eq" true (is_eq (plan db "5 == x.qty"));
  Tutil.check_bool "eq wins over range" true (is_eq (plan db "x.qty > 1 && x.qty == 5"));
  Db.close db

let picks_range () =
  let db = setup_analyzed () in
  Tutil.check_bool "gt" true (is_range (plan db "x.qty > 990"));
  Tutil.check_bool "both bounds" true (is_range (plan db "x.qty >= 2 && x.qty < 9"));
  (match (plan db "x.qty >= 2 && x.qty < 9").Planner.p_access with
  | Planner.Index_range { lo = Some (Value.Int 2, true); hi = Some (Value.Int 9, false); _ } -> ()
  | _ -> Alcotest.fail "bounds mis-extracted");
  Db.close db

let tightest_bounds () =
  let db = setup_analyzed () in
  (* Redundant conjuncts must fold to the tightest bound, whatever their
     order in the predicate. *)
  (match (plan db "x.qty > 990 && x.qty > 980").Planner.p_access with
  | Planner.Index_range { lo = Some (Value.Int 990, false); hi = None; _ } -> ()
  | _ -> Alcotest.fail "lo not tightened to > 990");
  (match (plan db "x.qty > 980 && x.qty > 990").Planner.p_access with
  | Planner.Index_range { lo = Some (Value.Int 990, false); hi = None; _ } -> ()
  | _ -> Alcotest.fail "lo not tightened (order flipped)");
  (match (plan db "x.qty < 5 && x.qty <= 9").Planner.p_access with
  | Planner.Index_range { lo = None; hi = Some (Value.Int 5, false); _ } -> ()
  | _ -> Alcotest.fail "hi not tightened to < 5");
  (* On equal constants a strict bound beats an inclusive one. *)
  (match (plan db "x.qty >= 997 && x.qty > 997").Planner.p_access with
  | Planner.Index_range { lo = Some (Value.Int 997, false); hi = None; _ } -> ()
  | _ -> Alcotest.fail "strict not preferred on tie");
  (match (plan db "x.qty > 2 && x.qty >= 0 && x.qty < 9 && x.qty <= 12").Planner.p_access with
  | Planner.Index_range { lo = Some (Value.Int 2, false); hi = Some (Value.Int 9, false); _ } -> ()
  | _ -> Alcotest.fail "four-conjunct combination wrong");
  Db.close db

let falls_back_to_scan () =
  let db = setup () in
  Tutil.check_bool "unindexed field" true (is_full (plan db "x.sku == 5"));
  Tutil.check_bool "non-sargable" true (is_full (plan db "x.qty + 1 == 6"));
  Tutil.check_bool "disjunction" true (is_full (plan db "x.qty == 5 || x.qty == 6"));
  Tutil.check_bool "ne" true (is_full (plan db "x.qty != 5"));
  Tutil.check_bool "var on both sides" true (is_full (plan db "x.qty == x.sku"));
  Db.close db

let constant_folding () =
  let db = setup () in
  (* The comparand may be any closed expression. *)
  Tutil.check_bool "computed constant" true (is_eq (plan db "x.qty == 2 + 3"));
  (* ... including outer loop variables supplied via env. *)
  let env = [ ("y", Value.Int 7) ] in
  Tutil.check_bool "env var" true (is_eq (plan db ~env "x.qty == y"));
  (* Without the binding it cannot be evaluated: full scan. *)
  Tutil.check_bool "unbound comparand" true (is_full (plan db "x.qty == y"));
  Db.close db

let inherited_index_used () =
  let db = setup () in
  (* special inherits item's qty index. *)
  Tutil.check_bool "inherited" true (is_eq (plan db ~cls:"special" "x.qty == 1"));
  Tutil.check_bool "own" true (is_eq (plan db ~cls:"special" "x.rank == 1"));
  (* item must NOT use special's rank index (rank is not its field). *)
  (match plan db ~cls:"item" "x.qty == 1 && x.name == \"a\"" with
  | p ->
      Tutil.check_bool "residual keeps extra conjunct" true (p.Planner.p_residual <> None));
  Db.close db

let deep_plan_classes () =
  let db = setup () in
  let p = plan db ~deep:true "x.qty > 1" in
  Tutil.check_string_list "hierarchy clusters" [ "item"; "special" ] p.Planner.p_classes;
  Db.close db

let explain_strings () =
  let db = setup () in
  let ex ?cls src = Planner.explain (plan db ?cls src) in
  Tutil.check_bool "probe text" true
    (String.length (ex "x.qty == 5") >= 11 && String.sub (ex "x.qty == 5") 0 11 = "index probe");
  Tutil.check_bool "scan text" true
    (String.length (ex "x.sku == 5") >= 9 && String.sub (ex "x.sku == 5") 0 9 = "full scan");
  Db.close db

(* Join strategy as counts: on an analyzed dept × emp pair the string
   equi-join runs as a hash join, one pass over each extent, and the
   ref-equality join as a dereference per outer row. A planner that fell
   back to a nested loop would show as a different executed strategy and
   as n × m scanned objects, the shape of the forced rescan below. *)
let join_strategy_counts () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class dept { dname: string; };
         class emp { ename: string; works: string; boss: ref dept; };|});
  Db.create_cluster db "dept";
  Db.create_cluster db "emp";
  Db.create_index db ~cls:"emp" ~field:"works";
  let n_dept = 40 and n_emp = 400 in
  let depts =
    Db.with_txn db (fun txn ->
        Array.init n_dept (fun i ->
            Db.pnew txn "dept" [ ("dname", Value.Str (Printf.sprintf "d%d" i)) ]))
  in
  Db.with_txn db (fun txn ->
      for i = 0 to n_emp - 1 do
        let d = i * 7 mod n_dept in
        ignore
          (Db.pnew txn "emp"
             [ ("ename", Value.Str (Printf.sprintf "e%d" i));
               ("works", Value.Str (Printf.sprintf "d%d" d));
               ("boss", Value.Ref depts.(d)) ])
      done);
  ignore (Db.analyze db);
  let join ~outer ~inner src =
    let before = Ode_util.Stats.snapshot () in
    let pairs = ref 0 in
    Ode.Query.run_join db ~outer ~inner ~inner_suchthat:(Parser.expr src) (fun _ _ -> incr pairs);
    let d = Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) before in
    (!pairs, Ode_util.Stats.get d)
  in
  let dept = ("d", "dept", false) and emp = ("e", "emp", false) in
  let pairs, hash = join ~outer:dept ~inner:emp "e.works == d.dname" in
  Tutil.check_int "every emp pairs with its dept" n_emp pairs;
  Tutil.check_int "executed as a hash join" 1 (hash "planner.hash_joins");
  Tutil.check_int "no nested loop" 0 (hash "planner.nested_joins");
  let scanned = hash "objects_scanned" in
  if scanned > n_dept + n_emp + 8 then
    Alcotest.failf "hash join scanned %d objects, more than n + m = %d" scanned (n_dept + n_emp);
  (* The same predicate hidden in a disjunction: a rescan per outer row. *)
  let forced_pairs, nested = join ~outer:dept ~inner:emp "e.works == d.dname || 1 == 2" in
  Tutil.check_int "forced nested loop agrees" n_emp forced_pairs;
  Tutil.check_int "executed as a nested loop" 1 (nested "planner.nested_joins");
  Tutil.check_bool "forced nested loop scans n × m" true
    (nested "objects_scanned" >= n_dept * n_emp);
  let deref_pairs, deref = join ~outer:emp ~inner:dept "d == e.boss" in
  Tutil.check_int "every emp reaches its boss" n_emp deref_pairs;
  Tutil.check_int "executed as a fused join" 1 (deref "planner.fused_joins");
  Tutil.check_int "deref scans the outer extent only" n_emp (deref "objects_scanned");
  Db.close db

let suite =
  [
    ( "planner",
      [
        Alcotest.test_case "equality probes" `Quick picks_eq_probe;
        Alcotest.test_case "range bounds" `Quick picks_range;
        Alcotest.test_case "tightest bounds win" `Quick tightest_bounds;
        Alcotest.test_case "scan fallbacks" `Quick falls_back_to_scan;
        Alcotest.test_case "constant folding and env" `Quick constant_folding;
        Alcotest.test_case "inherited indexes" `Quick inherited_index_used;
        Alcotest.test_case "deep plans expand classes" `Quick deep_plan_classes;
        Alcotest.test_case "explain strings" `Quick explain_strings;
        Alcotest.test_case "join strategies as scan counts" `Quick join_strategy_counts;
      ] );
  ]
