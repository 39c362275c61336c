(* Member initializers: [qty: int = 100;]. *)

module Db = Ode.Database
module Value = Ode_model.Value

let defaults_applied () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class cfg { retries: int = 3; ratio: float = 1.0 / 2; name: string = "anon";
                     flags: set<int> = {1, 2}; plain: int; };|});
  Db.create_cluster db "cfg";
  Db.with_txn db (fun txn ->
      let c = Db.pnew txn "cfg" [] in
      Tutil.check_value "int default" (Value.Int 3) (Db.get_field txn c "retries");
      Tutil.check_value "computed default" (Value.Float 0.5) (Db.get_field txn c "ratio");
      Tutil.check_value "string default" (Value.Str "anon") (Db.get_field txn c "name");
      Tutil.check_value "set default" (Value.set_of_list [ Value.Int 1; Value.Int 2 ])
        (Db.get_field txn c "flags");
      Tutil.check_value "undeclared default is zero" (Value.Int 0) (Db.get_field txn c "plain");
      (* Explicit inits still win. *)
      let d = Db.pnew txn "cfg" [ ("retries", Value.Int 9) ] in
      Tutil.check_value "explicit wins" (Value.Int 9) (Db.get_field txn d "retries"));
  Db.close db

let defaults_inherited () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class base7 { level: int = 5; };
         class derived7 : base7 { extra: int = 7; };|});
  Db.create_cluster db "derived7";
  Db.with_txn db (fun txn ->
      let o = Db.pnew txn "derived7" [] in
      Tutil.check_value "inherited default" (Value.Int 5) (Db.get_field txn o "level");
      Tutil.check_value "own default" (Value.Int 7) (Db.get_field txn o "extra"));
  Db.close db

let defaults_typechecked () =
  let db = Db.open_in_memory () in
  (match Db.define db {|class bad7 { n: int = "oops"; };|} with
  | _ -> Alcotest.fail "mistyped default accepted"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ());
  (* And they must be closed: field references are unbound here. *)
  (match Db.define db {|class bad8 { a: int; b: int = a + 1; };|} with
  | _ -> Alcotest.fail "open default accepted"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ());
  Db.close db

let defaults_survive_catalog_roundtrip () =
  let dir = Tutil.temp_dir "dflt" in
  let db = Db.open_ dir in
  ignore (Db.define db {|class cfg9 { retries: int = 3; };|});
  Db.create_cluster db "cfg9";
  Db.close db;
  let db2 = Db.open_ dir in
  Db.with_txn db2 (fun txn ->
      let c = Db.pnew txn "cfg9" [] in
      Tutil.check_value "default after reopen" (Value.Int 3) (Db.get_field txn c "retries"));
  Db.close db2

let suite =
  [
    ( "defaults",
      [
        Alcotest.test_case "applied at pnew" `Quick defaults_applied;
        Alcotest.test_case "inherited" `Quick defaults_inherited;
        Alcotest.test_case "typechecked and closed" `Quick defaults_typechecked;
        Alcotest.test_case "survive catalog round-trip" `Quick defaults_survive_catalog_roundtrip;
      ] );
  ]
