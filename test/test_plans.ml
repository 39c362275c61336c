(* Plan-snapshot regression gate: a fixed catalog of representative queries
   is planned pre- and post-[analyze] and the rendered plans are diffed
   against the committed golden file [test/plans.expected]. Both phases run
   the same cost model: before [analyze] it prices with default
   selectivities and cardinalities, after it with the histograms. Estimated
   figures (digit runs after '~') are normalized to '#' so cost-constant
   tuning does not churn the snapshot; the plan *shapes* and their
   stats/defaults provenance are what the gate pins. A second check
   compares each operator's estimated rows with the rows it produced.

   On mismatch the test fails with a full diff and writes the actual
   snapshot to [plans.actual] in the test's working directory
   (_build/default/test/); to accept a deliberate planner change, copy it
   over [test/plans.expected]. *)

module Db = Ode.Database
module Query = Ode.Query
module Planner = Ode.Planner
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

(* Anchor on the test binary so the paths work under both [dune runtest]
   (cwd = _build/default/test) and [dune exec] from the project root: the
   golden file is declared as a dep in [test/dune], so dune copies it next
   to the executable. *)
let here = Filename.dirname Sys.executable_name
let expected_path = Filename.concat here "plans.expected"
let actual_path = Filename.concat here "plans.actual"

(* A deterministic store: an inventory hierarchy with indexed [qty]/[rank]
   and unindexed [sku]; a skewed extent with two indexed fields; and a
   dept/emp pair for joins. *)
let setup () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class item { sku: int; qty: int; name: string; };
         class special : item { rank: int; };
         class skew { a: int; b: int; };
         class dept { dname: string; budget: int; };
         class emp { ename: string; works: string; boss: ref dept; team: set<int>; salary: int; };
         class squad { sname: string; roster: set<ref emp>; };|});
  List.iter (Db.create_cluster db) [ "item"; "special"; "skew"; "dept"; "emp"; "squad" ];
  Db.create_index db ~cls:"item" ~field:"qty";
  Db.create_index db ~cls:"item" ~field:"name";
  Db.create_index db ~cls:"special" ~field:"rank";
  Db.create_index db ~cls:"skew" ~field:"a";
  Db.create_index db ~cls:"skew" ~field:"b";
  Db.with_txn db (fun txn ->
      for i = 0 to 99 do
        ignore
          (Db.pnew txn "item"
             [ ("sku", Value.Int i); ("qty", Value.Int (i mod 10));
               ("name", Value.Str (Printf.sprintf "n%d" i)) ])
      done;
      for i = 0 to 19 do
        ignore
          (Db.pnew txn "special"
             [ ("sku", Value.Int (1000 + i)); ("qty", Value.Int (i mod 5));
               ("name", Value.Str (Printf.sprintf "s%d" i)); ("rank", Value.Int i) ])
      done;
      for i = 0 to 179 do
        let a = if i < 150 then 1 else 1000 + i in
        ignore (Db.pnew txn "skew" [ ("a", Value.Int a); ("b", Value.Int i) ])
      done);
  let d1, d2 =
    Db.with_txn db (fun txn ->
        ( Db.pnew txn "dept" [ ("dname", Value.Str "eng"); ("budget", Value.Int 100) ],
          Db.pnew txn "dept" [ ("dname", Value.Str "ops"); ("budget", Value.Int 50) ] ))
  in
  Db.with_txn db (fun txn ->
      let emps =
        List.init 60 (fun i ->
            Db.pnew txn "emp"
              [ ("ename", Value.Str (Printf.sprintf "e%d" i));
                ("works", Value.Str (if i mod 2 = 0 then "eng" else "ops"));
                ("boss", Value.Ref (if i mod 2 = 0 then d1 else d2));
                ("salary", Value.Int (i * 10)) ])
      in
      List.iteri
        (fun s members ->
          ignore
            (Db.pnew txn "squad"
               [ ("sname", Value.Str (Printf.sprintf "sq%d" s));
                 ("roster", Value.set_of_list (List.map (fun o -> Value.Ref o) members)) ]))
        [ List.filteri (fun i _ -> i < 5) emps;
          List.filteri (fun i _ -> i >= 55) emps ]);
  db

(* The 20 queries the gate pins: eq/range/full-scan access selection,
   residuals, hierarchy scans, the skew-driven plan switch, and every join
   strategy. Singles are [(var, cls, deep, suchthat)]. *)
let singles =
  [
    ("x", "item", false, None);
    ("x", "item", false, Some "x.qty == 5");
    ("x", "item", false, Some "x.qty == 5 && x.name == \"n3\"");
    ("x", "item", false, Some "x.sku == 7");
    ("x", "item", false, Some "x.qty > 7");
    ("x", "item", false, Some "x.qty >= 2 && x.qty < 4");
    ("x", "item", false, Some "x.qty > 1 && x.qty == 5");
    ("x", "item", false, Some "x.name == \"n42\"");
    ("x", "item", false, Some "x.qty == 5 || x.sku == 3");
    ("x", "item", true, Some "x.qty > 3");
    ("x", "special", false, Some "x.rank == 7");
    ("x", "special", false, Some "x.qty == 2");
    ("x", "skew", false, Some "x.a == 1 && x.b == 17");
    ("x", "skew", false, Some "x.b < 40");
    ("x", "skew", false, Some "x.a == 1234 && x.b > 170");
  ]

(* Joins are [(outer, inner, outer_suchthat, inner_suchthat)]. *)
let joins =
  [
    (("d", "dept", false), ("e", "emp", false), None, Some "e.works == d.dname");
    ( ("d", "dept", false),
      ("e", "emp", false),
      Some "d.budget > 60",
      Some "e.works == d.dname && e.salary > 100" );
    (("e", "emp", false), ("d", "dept", false), None, Some "d == e.boss");
    (("e", "emp", false), ("f", "emp", false), None, Some "f.salary > e.salary");
    (("d", "dept", false), ("e", "emp", false), None, Some "e.salary == d.budget");
    (("t", "squad", false), ("e", "emp", false), None, Some "e in t.roster");
  ]

(* Digit runs following '~' become '#': "~123 rows" -> "~# rows". *)
let normalize s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    Buffer.add_char b c;
    incr i;
    if c = '~' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j > !i then begin
        Buffer.add_char b '#';
        i := !j
      end
    end
  done;
  Buffer.contents b

let render db =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let phase label =
    out "==== %s ====" label;
    List.iter
      (fun (var, cls, deep, st) ->
        let suchthat = Option.map Parser.expr st in
        out "-- forall %s in %s%s%s" var cls (if deep then "*" else "")
          (match st with Some s -> " suchthat " ^ s | None -> "");
        out "%s" (normalize (Query.explain db ~var ~cls ~deep ?suchthat ())))
      singles;
    List.iter
      (fun (outer, inner, o_st, i_st) ->
        let ovar, ocls, _ = outer and ivar, icls, _ = inner in
        out "-- forall %s in %s%s { forall %s in %s%s }" ovar ocls
          (match o_st with Some s -> " suchthat " ^ s | None -> "")
          ivar icls
          (match i_st with Some s -> " suchthat " ^ s | None -> "");
        out "%s"
          (normalize
             (Query.explain_join db ~outer ~inner
                ?outer_suchthat:(Option.map Parser.expr o_st)
                ?inner_suchthat:(Option.map Parser.expr i_st) ())))
      joins
  in
  phase "before analyze (defaults)";
  ignore (Db.analyze db);
  phase "after analyze (cost-based)";
  Buffer.contents b

let diff expected actual =
  let el = String.split_on_char '\n' expected and al = String.split_on_char '\n' actual in
  let b = Buffer.create 1024 in
  let rec go i el al =
    match (el, al) with
    | [], [] -> ()
    | e :: et, a :: at ->
        if e <> a then Buffer.add_string b (Printf.sprintf "line %d:\n  - %s\n  + %s\n" i e a);
        go (i + 1) et at
    | e :: et, [] ->
        Buffer.add_string b (Printf.sprintf "line %d:\n  - %s\n  + <missing>\n" i e);
        go (i + 1) et []
    | [], a :: at ->
        Buffer.add_string b (Printf.sprintf "line %d:\n  - <missing>\n  + %s\n" i a);
        go (i + 1) [] at
  in
  go 1 el al;
  Buffer.contents b

let snapshot_matches () =
  let db = setup () in
  let actual = render db in
  Db.close db;
  if not (Sys.file_exists expected_path) then begin
    Out_channel.with_open_text actual_path (fun oc -> Out_channel.output_string oc actual);
    Alcotest.failf "golden file %s missing; actual snapshot written to %s" expected_path
      actual_path
  end;
  let expected = In_channel.with_open_text expected_path In_channel.input_all in
  if expected <> actual then begin
    Out_channel.with_open_text actual_path (fun oc -> Out_channel.output_string oc actual);
    Alcotest.failf
      "plan snapshot drifted (accept with: cp %s test/plans.expected)\n%s"
      (Filename.concat (Sys.getcwd ()) actual_path)
      (diff expected actual)
  end

(* The snapshot generator itself must be deterministic, or the gate would
   flap: render twice on independent stores. *)
let snapshot_deterministic () =
  let db1 = setup () in
  let s1 = render db1 in
  Db.close db1;
  let db2 = setup () in
  let s2 = render db2 in
  Db.close db2;
  Tutil.check_bool "two renders agree" true (s1 = s2)

(* Per-operator estimates against actual rows: after [analyze], every
   single-extent catalog query is profiled, and each access and filter
   operator's estimated rows are compared with the rows it produced, as
   the q-error max(est, act) / min(est, act) with both floored at one row.
   The bound is the measured worst case, so any estimate that gets worse
   fails: [x.sku == 7]'s filter, an equality on an unindexed field priced
   at the 5% default (est 5, actual 1). The runners-up are the 33%
   default for a disjunction (3.0) and two range conjuncts on one field
   multiplied as if independent (2.2). On failure the message lists every
   operator, worst first. *)
let max_qerror = 5.0

let node_estimate (t : Planner.tree) =
  match t with
  | Scan p | Probe p | Range p -> Some p.Planner.p_est.Planner.est_rows
  | Filter { plan; _ } -> Some plan.Planner.p_est.Planner.est_out
  | _ -> None

let estimates_hold () =
  let db = setup () in
  ignore (Db.analyze db);
  let rows =
    List.concat_map
      (fun (var, cls, deep, st) ->
        let suchthat = Option.map Parser.expr st in
        let pf = Query.profile db ~var ~cls ~deep ?suchthat () in
        List.filter_map
          (fun (n : Query.node_stats) ->
            Option.map
              (fun est ->
                let e = Float.max 1.0 est and a = Float.max 1.0 (float_of_int n.ns_rows) in
                ( Float.max (e /. a) (a /. e),
                  Printf.sprintf "%s%s %s: %s est %.1f, actual %d" cls
                    (if deep then "*" else "")
                    (Option.value st ~default:"(all)")
                    (Planner.op_name n.ns_op) est n.ns_rows ))
              (node_estimate n.ns_op))
          pf.Query.pf_nodes)
      singles
  in
  Db.close db;
  let worst = List.fold_left (fun acc (q, _) -> Float.max acc q) 0.0 rows in
  if worst > max_qerror then
    Alcotest.failf "operator q-error %.2f exceeds %.2f:\n%s" worst max_qerror
      (String.concat "\n"
         (List.map (fun (q, what) -> Printf.sprintf "  %6.2f  %s" q what)
            (List.sort (fun (a, _) (b, _) -> compare b a) rows)))

let suite =
  [
    ( "plans",
      [
        Alcotest.test_case "snapshot deterministic" `Quick snapshot_deterministic;
        Alcotest.test_case "snapshot matches golden file" `Quick snapshot_matches;
        Alcotest.test_case "operator estimates hold" `Quick estimates_hold;
      ] );
  ]
