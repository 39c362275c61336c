(* End-to-end sessions exercising every subsystem together: DDL, data,
   hierarchy queries, versions, constraints, triggers, crash recovery,
   integrity verification and dump/reload. *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let int n = Value.Int n
let str s = Value.Str s

let full_lifecycle () =
  let dir = Tutil.temp_dir "integ" in
  let trigger_log = Buffer.create 64 in

  (* --- phase 1: build ---------------------------------------------------- *)
  let db = Db.open_ dir in
  Db.set_action_printer db (Buffer.add_string trigger_log);
  ignore
    (Db.define db
       {|
       class asset {
         label: string;
         worth: int;
         constraint valued: worth >= 0;
         method pretty(): string = label + "=" + str(worth);
       };
       class machine : asset {
         hours: int;
         trigger service(limit: int): hours > limit ==> { print "service", label; hours := 0; };
       };
       class building : asset { floors: int; };
       |});
  List.iter (Db.create_cluster db) [ "asset"; "machine"; "building" ];
  Db.create_index db ~cls:"asset" ~field:"worth";

  let lathe =
    Db.with_txn db (fun txn ->
        let lathe = Db.pnew txn "machine" [ ("label", str "lathe"); ("worth", int 900); ("hours", int 10) ] in
        ignore (Db.pnew txn "machine" [ ("label", str "press"); ("worth", int 1500); ("hours", int 5) ]);
        ignore (Db.pnew txn "building" [ ("label", str "shed"); ("worth", int 20000); ("floors", int 1) ]);
        ignore (Db.activate txn lathe "service" [ int 100 ]);
        Db.set_root txn "flagship" (Value.Ref lathe);
        lathe)
  in

  (* --- phase 2: work ------------------------------------------------------ *)
  (* Wear the lathe past its service limit; the trigger resets its hours. *)
  Db.with_txn db (fun txn -> Db.set_field txn lathe "hours" (int 150));
  Tutil.check_string "trigger ran" "service lathe\n" (Buffer.contents trigger_log);
  Db.with_txn db (fun txn -> Tutil.check_value "action applied" (int 0) (Db.get_field txn lathe "hours"));

  (* Version the lathe before revaluing it. *)
  Db.with_txn db (fun txn ->
      ignore (Db.newversion txn lathe);
      Db.set_field txn lathe "worth" (int 750));

  (* A violating revaluation rolls everything back. *)
  (match
     Db.with_txn db (fun txn ->
         Db.set_field txn lathe "hours" (int 3);
         Db.set_field txn lathe "worth" (int (-1)))
   with
  | () -> Alcotest.fail "constraint should have fired"
  | exception Ode.Types.Constraint_violation _ -> ());
  Db.with_txn db (fun txn ->
      Tutil.check_value "rollback kept worth" (int 750) (Db.get_field txn lathe "worth");
      Tutil.check_value "rollback kept hours" (int 0) (Db.get_field txn lathe "hours"));

  (* Queries across the hierarchy, via the index. *)
  let rich =
    Db.with_txn db (fun _ ->
        Query.count db ~var:"a" ~cls:"asset" ~deep:true ~suchthat:(Parser.expr "a.worth >= 1000") ())
  in
  Tutil.check_int "deep indexed query" 2 rich;

  (* --- phase 3: crash ------------------------------------------------------ *)
  let snap = Tutil.temp_dir "integ-crash" in
  Sys.rmdir snap;
  Tutil.copy_dir dir snap;
  Db.close db;

  let db2 = Db.open_ snap in
  Tutil.verified db2;
  Db.with_txn db2 (fun txn ->
      (match Db.root_exn txn "flagship" with
      | Value.Ref o ->
          Tutil.check_value "root survives crash" (str "lathe") (Db.get_field txn o "label");
          Tutil.check_bool "versions survive" true (List.length (Db.versions txn o) = 2);
          Tutil.check_value "method dispatch works" (str "lathe=750") (Db.call txn o "pretty" [])
      | v -> Alcotest.failf "bad root: %s" (Value.to_string v)));

  (* The persisted trigger is still armed after recovery (it was once-only
     and already fired, so re-activate, then fire it). *)
  Buffer.clear trigger_log;
  Db.set_action_printer db2 (Buffer.add_string trigger_log);
  Db.with_txn db2 (fun txn ->
      match Db.root_exn txn "flagship" with
      | Value.Ref o -> ignore (Db.activate txn o "service" [ int 1 ])
      | _ -> ());
  Db.with_txn db2 (fun txn ->
      match Db.root_exn txn "flagship" with
      | Value.Ref o -> Db.set_field txn o "hours" (int 2)
      | _ -> ());
  Tutil.check_string "trigger re-armed post-crash" "service lathe\n" (Buffer.contents trigger_log);

  (* --- phase 4: dump and reload --------------------------------------------- *)
  let script = Ode.Dump.export db2 in
  let db3 = Db.open_in_memory () in
  Ode.Dump.import db3 script;
  Tutil.verified db3;
  let labels d =
    Db.with_txn d (fun txn ->
        List.sort compare
          (List.map
             (fun o -> Value.to_string (Db.get_field txn o "label"))
             (Query.to_list d ~var:"a" ~cls:"asset" ~deep:true ())))
  in
  Tutil.check_bool "dump preserves extents" true (labels db2 = labels db3);
  Db.close db2;
  Db.close db3

let shell_session_lifecycle () =
  (* The same story driven purely through the surface language. *)
  let db = Db.open_in_memory () in
  let out = Buffer.create 256 in
  let shell = Ode.Shell.create ~print:(Buffer.add_string out) db in
  (match
     Ode.Shell.exec_catching shell
       {|
       class task {
         title: string; done: int; priority: int;
         constraint prio: priority >= 0 && priority <= 9;
         trigger nag(): done == 0 && priority > 7 ==> { print "URGENT:", title; };
       };
       create cluster task;
       create index on task(priority);
       t1 := pnew task { title = "ship", priority = 3 };
       t2 := pnew task { title = "test", priority = 5 };
       activate t1.nag();
       begin;
       t1.priority := 9;
       commit;
       forall t in task suchthat t.priority > 4 by t.priority desc { print t.title, t.priority; };
       verify;
       |}
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "session failed: %s" e.msg);
  Tutil.check_string "full session output" "URGENT: ship\nship 9\ntest 5\nok\n" (Buffer.contents out);
  Db.close db

let pred_k k = Parser.expr (Printf.sprintf "x.k == %d" k)

let stress_mixed_workload () =
  (* Many transactions mixing creates, updates, deletes, versions and
     queries; invariants checked by the verifier and by bookkeeping. *)
  let db = Db.open_in_memory () in
  ignore (Db.define db "class s7 { k: int; alive: int; };");
  Db.create_cluster db "s7";
  Db.create_index db ~cls:"s7" ~field:"k";
  let rng = Ode_util.Prng.create 99 in
  let live = Hashtbl.create 256 in
  for round = 1 to 400 do
    Db.with_txn db (fun txn ->
        match Ode_util.Prng.int rng 5 with
        | 0 | 1 ->
            let o = Db.pnew txn "s7" [ ("k", int (Ode_util.Prng.int rng 50)) ] in
            Hashtbl.replace live o round
        | 2 when Hashtbl.length live > 0 ->
            let o = List.hd (Hashtbl.fold (fun k _ acc -> k :: acc) live []) in
            Db.set_field txn o "k" (int (Ode_util.Prng.int rng 50))
        | 3 when Hashtbl.length live > 0 ->
            let o = List.hd (Hashtbl.fold (fun k _ acc -> k :: acc) live []) in
            ignore (Db.newversion txn o)
        | 4 when Hashtbl.length live > 3 ->
            let o = List.hd (Hashtbl.fold (fun k _ acc -> k :: acc) live []) in
            Db.pdelete txn o;
            Hashtbl.remove live o
        | _ -> ())
  done;
  Tutil.verified db;
  let n = Db.with_txn db (fun _ -> Query.count db ~var:"x" ~cls:"s7" ()) in
  Tutil.check_int "extent matches bookkeeping" (Hashtbl.length live) n;
  (* Every indexed query agrees with a filtered full state. *)
  Db.with_txn db (fun txn ->
      for k = 0 to 49 do
        let via_index =
          Query.count db ~var:"x" ~cls:"s7" ~suchthat:(pred_k k) ()
        and by_hand =
          Hashtbl.fold
            (fun o _ acc -> if Db.get_field txn o "k" = int k then acc + 1 else acc)
            live 0
        in
        if via_index <> by_hand then Alcotest.failf "k=%d: index %d vs model %d" k via_index by_hand
      done);
  Db.close db

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "full lifecycle with crash" `Slow full_lifecycle;
        Alcotest.test_case "shell session lifecycle" `Quick shell_session_lifecycle;
        Alcotest.test_case "stress mixed workload" `Slow stress_mixed_workload;
      ] );
  ]
