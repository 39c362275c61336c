(* forall iteration: suchthat, by, deep extents, fixpoint, joins, and
   index-plan/scan equivalence. *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let str s = Value.Str s
let int n = Value.Int n

let seed_university db =
  Db.with_txn db (fun txn ->
      let mk cls name age extra =
        ignore (Db.pnew txn cls ([ ("name", str name); ("age", int age); ("income", int (age * 100)) ] @ extra))
      in
      mk "person" "pat" 30 [];
      mk "person" "quinn" 40 [];
      mk "student" "ann" 20 [ ("gpa", Value.Float 3.9) ];
      mk "student" "bob" 25 [ ("gpa", Value.Float 2.1) ];
      mk "faculty" "carol" 50 [ ("salary", int 9000) ];
      mk "ta" "dave" 27 [ ("gpa", Value.Float 3.0); ("salary", int 1000); ("hours", int 10) ])

let names db ?deep ?suchthat ?by cls =
  Db.with_txn db (fun txn ->
      List.map
        (fun oid -> match Db.get_field txn oid "name" with Value.Str s -> s | _ -> "?")
        (Query.to_list db ~var:"x" ~cls ?deep ?suchthat ?by ()))

let shallow_vs_deep () =
  let db = Tutil.open_university () in
  seed_university db;
  Tutil.check_string_list "shallow person" [ "pat"; "quinn" ] (names db "person");
  Tutil.check_string_list "deep person"
    [ "pat"; "quinn"; "ann"; "bob"; "carol"; "dave" ]
    (names db ~deep:true "person");
  Tutil.check_string_list "deep faculty" [ "carol"; "dave" ] (names db ~deep:true "faculty");
  Db.close db

let suchthat_filters () =
  let db = Tutil.open_university () in
  seed_university db;
  Tutil.check_string_list "age filter" [ "quinn"; "carol" ]
    (names db ~deep:true ~suchthat:(Parser.expr "x.age >= 40") "person");
  Tutil.check_string_list "method in suchthat" [ "ann"; "dave" ]
    (names db ~deep:true ~suchthat:(Parser.expr "x.gpa >= 3.0") "student");
  Db.close db

let by_orders () =
  let db = Tutil.open_university () in
  seed_university db;
  Tutil.check_string_list "asc by age"
    [ "ann"; "bob"; "dave"; "pat"; "quinn"; "carol" ]
    (names db ~deep:true ~by:(Parser.expr "x.age", Ode_lang.Ast.Asc) "person");
  Tutil.check_string_list "desc by name"
    [ "quinn"; "pat"; "dave"; "carol"; "bob"; "ann" ]
    (names db ~deep:true ~by:(Parser.expr "x.name", Ode_lang.Ast.Desc) "person");
  Db.close db

let aggregates_via_fold () =
  let db = Tutil.open_university () in
  seed_university db;
  (* The paper's "average income of persons" loop. *)
  let total, n =
    Db.with_txn db (fun txn ->
        Query.fold db ~var:"p" ~cls:"person" ~deep:true ~init:(0, 0) (fun (t, n) oid ->
            match Db.get_field txn oid "income" with
            | Value.Int i -> (t + i, n + 1)
            | _ -> (t, n)))
  in
  Tutil.check_int "count" 6 n;
  Tutil.check_int "total" ((30 + 40 + 20 + 25 + 50 + 27) * 100) total;
  Db.close db

let index_and_scan_agree () =
  let db = Tutil.open_university () in
  seed_university db;
  let q = Parser.expr "x.age >= 25 && x.age < 50" in
  let before = names db ~deep:true ~suchthat:q "person" in
  Db.create_index db ~cls:"person" ~field:"age";
  let explain = Db.with_txn db (fun _ -> Query.explain db ~var:"x" ~cls:"person" ~suchthat:q ()) in
  Tutil.check_bool "uses the index" true
    (String.length explain >= 11 && String.sub explain 0 11 = "index range");
  let after = names db ~deep:true ~suchthat:q "person" in
  Tutil.check_bool "same rows (order may differ)" true
    (List.sort compare before = List.sort compare after);
  Db.close db

let index_eq_probe () =
  let db = Tutil.open_university () in
  seed_university db;
  Db.create_index db ~cls:"person" ~field:"name";
  let q = Parser.expr "x.name == \"carol\"" in
  let explain = Db.with_txn db (fun _ -> Query.explain db ~var:"x" ~cls:"faculty" ~suchthat:q ()) in
  Tutil.check_bool "eq probe" true (String.length explain >= 11 && String.sub explain 0 11 = "index probe");
  Tutil.check_string_list "probe result" [ "carol" ] (names db ~suchthat:q "faculty");
  Db.close db

let index_sees_txn_writes () =
  let db = Tutil.open_university () in
  seed_university db;
  Db.create_index db ~cls:"person" ~field:"age";
  let q = Parser.expr "x.age == 99" in
  let txn = Db.begin_txn db in
  (fun txn ->
      (* An object updated in this txn must be found via its NEW value and
         not via its old one, even though the index is stale. *)
      let pat = List.hd (Query.to_list db ~txn ~var:"x" ~cls:"person" ~suchthat:(Parser.expr "x.name == \"pat\"") ()) in
      Db.set_field txn pat "age" (int 99);
      let hits = Query.to_list db ~txn ~var:"x" ~cls:"person" ~suchthat:q () in
      Tutil.check_int "new value found" 1 (List.length hits);
      let old_hits = Query.to_list db ~txn ~var:"x" ~cls:"person" ~suchthat:(Parser.expr "x.age == 30") () in
      Tutil.check_int "old value not found" 0 (List.length old_hits);
      (* Created in txn: visible despite index access path. *)
      ignore (Db.pnew txn "person" [ ("name", str "new"); ("age", int 99) ]);
      let hits2 = Query.to_list db ~txn ~var:"x" ~cls:"person" ~suchthat:q () in
      Tutil.check_int "created found" 2 (List.length hits2))
    txn;
  Db.abort txn;
  Db.close db

(* A read that names no transaction sees the committed state, not the
   uncommitted writes of whichever transaction began last. *)
let txnless_reads_see_committed () =
  let db = Tutil.open_university () in
  seed_university db;
  Db.create_index db ~cls:"person" ~field:"age";
  let pat = List.hd (Query.to_list db ~var:"x" ~cls:"person" ~suchthat:(Parser.expr "x.name == \"pat\"") ()) in
  let txn = Db.begin_txn db in
  let fresh = Db.pnew txn "person" [ ("name", str "new"); ("age", int 99) ] in
  let aged = Parser.expr "x.age == 99" in
  Tutil.check_int "the txn counts its pnew" 3 (Query.count db ~txn ~var:"x" ~cls:"person" ());
  Tutil.check_int "a txn-less count is committed" 2 (Query.count db ~var:"x" ~cls:"person" ());
  Tutil.check_int "the txn's index probe finds its pnew" 1
    (Query.count db ~txn ~var:"x" ~cls:"person" ~suchthat:aged ());
  Tutil.check_int "a txn-less index probe is committed" 0
    (Query.count db ~var:"x" ~cls:"person" ~suchthat:aged ());
  Tutil.check_bool "the txn sees its pnew" true (Db.exists db ~txn fresh);
  Tutil.check_bool "a txn-less exists misses the pnew" false (Db.exists db fresh);
  Db.pdelete txn pat;
  Tutil.check_bool "the txn misses its delete" false (Db.exists db ~txn pat);
  Tutil.check_bool "a txn-less exists finds the deleted" true (Db.exists db pat);
  Db.abort txn;
  Db.close db

let index_maintenance_on_delete () =
  let db = Tutil.open_university () in
  seed_university db;
  Db.create_index db ~cls:"person" ~field:"age";
  Db.with_txn db (fun txn ->
      let quinn =
        List.hd (Query.to_list db ~var:"x" ~cls:"person" ~suchthat:(Parser.expr "x.age == 40") ())
      in
      Db.pdelete txn quinn);
  Tutil.check_string_list "deleted not found via index" []
    (names db ~suchthat:(Parser.expr "x.age == 40") "person");
  Db.close db

let join_nested_loops () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       "class dept { dname: string; }; class emp { ename: string; dept: ref dept; };");
  Db.create_cluster db "dept";
  Db.create_cluster db "emp";
  Db.with_txn db (fun txn ->
      let cs = Db.pnew txn "dept" [ ("dname", str "cs") ] in
      let ee = Db.pnew txn "dept" [ ("dname", str "ee") ] in
      ignore (Db.pnew txn "emp" [ ("ename", str "a"); ("dept", Value.Ref cs) ]);
      ignore (Db.pnew txn "emp" [ ("ename", str "b"); ("dept", Value.Ref ee) ]);
      ignore (Db.pnew txn "emp" [ ("ename", str "c"); ("dept", Value.Ref cs) ]));
  let pairs = ref [] in
  Db.with_txn db (fun txn ->
      Query.join2 db ~outer:("d", "dept") ~inner:("e", "emp")
        ~suchthat:(Parser.expr "e.dept == d")
        (fun d e ->
          let dn = Db.get_field txn d "dname" and en = Db.get_field txn e "ename" in
          pairs := (Value.to_string dn, Value.to_string en) :: !pairs));
  Tutil.check_int "join cardinality" 3 (List.length !pairs);
  Tutil.check_bool "pairs correct" true
    (List.sort compare !pairs = [ ("\"cs\"", "\"a\""); ("\"cs\"", "\"c\""); ("\"ee\"", "\"b\"") ]);
  Db.close db

let fixpoint_sees_inserts () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class node { v: int; };");
  Db.create_cluster db "node";
  Db.with_txn db (fun txn -> ignore (Db.pnew txn "node" [ ("v", int 0) ]));
  (* Each visited node with v < 3 creates a successor; fixpoint must visit
     the additions (paper §3.2). *)
  let visited = ref 0 in
  Db.with_txn db (fun txn ->
      Query.run db ~txn ~var:"n" ~cls:"node" ~fixpoint:true (fun oid ->
          incr visited;
          match Db.get_field txn oid "v" with
          | Value.Int v when v < 3 -> ignore (Db.pnew txn "node" [ ("v", int (v + 1)) ])
          | _ -> ()));
  Tutil.check_int "visited closure" 4 !visited;
  let n = Db.with_txn db (fun _ -> Query.count db ~var:"n" ~cls:"node" ()) in
  Tutil.check_int "objects created" 4 n;
  Db.close db

let plain_scan_does_not_see_inserts () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class n2 { v: int; };");
  Db.create_cluster db "n2";
  Db.with_txn db (fun txn -> ignore (Db.pnew txn "n2" [ ("v", int 0) ]));
  let visited = ref 0 in
  Db.with_txn db (fun txn ->
      Query.run db ~txn ~var:"n" ~cls:"n2" (fun _ ->
          incr visited;
          if !visited < 3 then ignore (Db.pnew txn "n2" [ ("v", int !visited) ])));
  (* Without fixpoint, the one committed object is visited; its insertions
     during iteration are visible since the txn-created list is consulted
     once — but new inserts made *during* that consultation are not chased.
     The documented contract: fixpoint:false visits a snapshot plus the
     creations existing when the scan reaches them; it must terminate. *)
  Tutil.check_bool "terminates and bounded" true (!visited <= 3);
  Db.close db

let prop_scan_vs_index =
  (* Random data, random threshold: the planner's index path and a forced
     full scan agree exactly. *)
  QCheck.Test.make ~name:"index plan ≡ full scan" ~count:25
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 60) (QCheck.int_range 0 50)) (QCheck.int_range 0 50))
    (fun (ages, cut) ->
      let db = Db.open_in_memory () in
      ignore (Db.define db "class q { age: int; };");
      Db.create_cluster db "q";
      Db.with_txn db (fun txn ->
          List.iter (fun a -> ignore (Db.pnew txn "q" [ ("age", int a) ])) ages);
      let pred = Parser.expr (Printf.sprintf "x.age >= %d" cut) in
      let scan = Db.with_txn db (fun _ -> Query.to_list db ~var:"x" ~cls:"q" ~suchthat:pred ()) in
      Db.create_index db ~cls:"q" ~field:"age";
      let indexed = Db.with_txn db (fun _ -> Query.to_list db ~var:"x" ~cls:"q" ~suchthat:pred ()) in
      Db.close db;
      List.sort compare scan = List.sort compare indexed
      && List.length scan = List.length (List.filter (fun a -> a >= cut) ages))

let suite =
  [
    ( "query",
      [
        Alcotest.test_case "shallow vs deep extents" `Quick shallow_vs_deep;
        Alcotest.test_case "suchthat filters" `Quick suchthat_filters;
        Alcotest.test_case "by orders results" `Quick by_orders;
        Alcotest.test_case "aggregates via fold" `Quick aggregates_via_fold;
        Alcotest.test_case "index and scan agree" `Quick index_and_scan_agree;
        Alcotest.test_case "index equality probe" `Quick index_eq_probe;
        Alcotest.test_case "index scans see txn writes" `Quick index_sees_txn_writes;
        Alcotest.test_case "txn-less reads see committed state" `Quick txnless_reads_see_committed;
        Alcotest.test_case "index maintained on delete" `Quick index_maintenance_on_delete;
        Alcotest.test_case "multi-variable join" `Quick join_nested_loops;
        Alcotest.test_case "fixpoint sees inserts" `Quick fixpoint_sees_inserts;
        Alcotest.test_case "plain scan is bounded" `Quick plain_scan_does_not_see_inserts;
      ] );
    Tutil.qsuite "query.props" [ prop_scan_vs_index ];
  ]
