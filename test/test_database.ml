(* Persistence by instance, transactions, constraints and the object API. *)

module Db = Ode.Database
module Value = Ode_model.Value
module Oid = Ode_model.Oid
open Ode.Types

let str s = Value.Str s
let int n = Value.Int n

let pnew_and_read () =
  let db = Tutil.open_university () in
  let oid =
    Db.with_txn db (fun txn ->
        Db.pnew txn "student" [ ("name", str "ann"); ("age", int 20); ("gpa", Value.Float 3.5) ])
  in
  Db.with_txn db (fun txn ->
      Tutil.check_value "name" (str "ann") (Db.get_field txn oid "name");
      Tutil.check_value "default income" (int 0) (Db.get_field txn oid "income");
      Tutil.check_value "gpa" (Value.Float 3.5) (Db.get_field txn oid "gpa");
      let fields = Option.get (Db.get txn oid) in
      Tutil.check_int "all fields incl. inherited" 4 (List.length fields));
  Db.close db

let pnew_requires_cluster () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class lone { x: int; };");
  Db.with_txn db (fun txn ->
      match Db.pnew txn "lone" [] with
      | _ -> Alcotest.fail "expected a missing-cluster error"
      | exception Ode_util.Ode_error.Error { cls = User; msg } ->
          Tutil.check_string "missing cluster" "no cluster exists for class lone (use: create cluster lone;)" msg);
  Db.close db

let pnew_type_checks () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      (match Db.pnew txn "person" [ ("age", str "old") ] with
      | _ -> Alcotest.fail "wrong type accepted"
      | exception Ode_util.Ode_error.Error { cls = User; msg }
        when String.starts_with ~prefix:"type error: " msg -> ());
      (match Db.pnew txn "person" [ ("ghost", int 1) ] with
      | _ -> Alcotest.fail "unknown field accepted"
      | exception Ode_util.Ode_error.Error { cls = User; msg }
        when String.starts_with ~prefix:"type error: " msg -> ());
      (* int into float field is fine (promotion). *)
      ignore (Db.pnew txn "student" [ ("gpa", int 3) ]));
  Db.close db

let ref_fields_check_class () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       "class dept { title: string; }; class emp { name: string; d: ref dept; };");
  Db.create_cluster db "dept";
  Db.create_cluster db "emp";
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "dept" [ ("title", str "cs") ] in
      let e = Db.pnew txn "emp" [ ("name", str "bo"); ("d", Value.Ref d) ] in
      (* Wrong class ref rejected. *)
      (match Db.set_field txn e "d" (Value.Ref e) with
      | _ -> Alcotest.fail "emp is not a dept"
      | exception Ode_util.Ode_error.Error { cls = User; msg }
        when String.starts_with ~prefix:"type error: " msg -> ());
      (* Null allowed for refs. *)
      Db.set_field txn e "d" Value.Null;
      Tutil.check_value "nulled" Value.Null (Db.get_field txn e "d"));
  Db.close db

let update_and_delete () =
  let db = Tutil.open_university () in
  let oid = Db.with_txn db (fun txn -> Db.pnew txn "person" [ ("name", str "joe") ]) in
  Db.with_txn db (fun txn ->
      Db.update txn oid [ ("age", int 31); ("income", int 100) ];
      Tutil.check_value "updated" (int 31) (Db.get_field txn oid "age"));
  Db.with_txn db (fun txn -> Db.pdelete txn oid);
  Db.with_txn db (fun txn ->
      Tutil.check_bool "gone" true (Db.get txn oid = None);
      match Db.set_field txn oid "age" (int 1) with
      | _ -> Alcotest.fail "update of deleted object"
      | exception Ode_util.Ode_error.Error { cls = User; msg }
        when String.starts_with ~prefix:"type error: " msg -> ());
  Db.close db

let abort_discards () =
  let db = Tutil.open_university () in
  let txn = Db.begin_txn db in
  let oid = Db.pnew txn "person" [ ("name", str "ghost") ] in
  Db.abort txn;
  Db.with_txn db (fun txn2 ->
      Tutil.check_bool "never existed" false (Db.exists db ~txn:txn2 oid));
  Db.close db

let txn_sees_own_writes () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      let oid = Db.pnew txn "person" [ ("name", str "me"); ("age", int 1) ] in
      Db.set_field txn oid "age" (int 2);
      Tutil.check_value "read-your-writes" (int 2) (Db.get_field txn oid "age");
      Db.pdelete txn oid;
      Tutil.check_bool "deleted in txn" false (Db.exists db ~txn oid));
  Db.close db

let concurrent_txns () =
  let db = Tutil.open_university () in
  (* Two explicit transactions open at once, each on its own snapshot. *)
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  let oid = Db.pnew t1 "person" [ ("name", str "early"); ("age", int 30) ] in
  Db.commit t1;
  (* t2's snapshot predates t1's commit: the new object is invisible. *)
  Tutil.check_bool "snapshot isolation" false (Db.exists db ~txn:t2 oid);
  (* ... but a fresh transaction sees it. *)
  let t3 = Db.begin_txn db in
  Tutil.check_bool "later snapshot sees it" true (Db.exists db ~txn:t3 oid);
  Db.abort t3;
  (* t2 can still commit disjoint writes. *)
  let oid2 = Db.pnew t2 "person" [ ("name", str "late"); ("age", int 40) ] in
  Db.commit t2;
  Db.with_txn db (fun txn ->
      Tutil.check_bool "both commits landed" true
        (Db.exists db ~txn oid && Db.exists db ~txn oid2));
  Db.close db

let first_committer_wins () =
  let db = Tutil.open_university () in
  let oid =
    Db.with_txn db (fun txn -> Db.pnew txn "person" [ ("name", str "c"); ("age", int 1) ])
  in
  let ta = Db.begin_txn db in
  let tb = Db.begin_txn db in
  Db.set_field ta oid "age" (int 2);
  Db.set_field tb oid "age" (int 3);
  Db.commit ta;
  (match Db.commit tb with
  | () -> Alcotest.fail "conflicting commit succeeded"
  | exception Txn_conflict _ -> ());
  (* Exactly one winner: the first committer's write is the state. *)
  Db.with_txn db (fun txn ->
      Tutil.check_value "winner's write" (int 2) (Db.get_field txn oid "age"));
  (* The loser's transaction is gone; a replay succeeds. *)
  Db.with_txn db (fun txn -> Db.set_field txn oid "age" (int 3));
  Db.with_txn db (fun txn ->
      Tutil.check_value "replay landed" (int 3) (Db.get_field txn oid "age"));
  Db.close db

(* Write skew through a constraint that reads another object: each
   transaction keeps [joint] true on its own snapshot, and together they
   would break it. The keys a constraint reads join the conflict check, so
   the second committer gets the retryable conflict; run serially, the
   constraint itself rejects the second update. *)
let joint_accounts db =
  Db.with_txn db (fun txn ->
      let a = Db.pnew txn "acct" [ ("bal", int 50) ] in
      let b = Db.pnew txn "acct" [ ("bal", int 50); ("peer", Value.Ref a) ] in
      Db.set_field txn a "peer" (Value.Ref b);
      (a, b))

let balances db a b =
  Db.with_txn db (fun txn -> (Db.get_field txn a "bal", Db.get_field txn b "bal"))

let constraint_write_skew () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db "class acct { bal: int; peer: ref acct; constraint joint: bal + peer.bal >= 0; };");
  Db.create_cluster db "acct";
  let a, b = joint_accounts db in
  let ta = Db.begin_txn db and tb = Db.begin_txn db in
  Db.set_field ta a "bal" (int (-40));
  Db.set_field tb b "bal" (int (-40));
  Db.commit ta;
  (match Db.commit tb with
  | () -> Alcotest.fail "both sides of the write skew committed"
  | exception Txn_conflict _ -> ());
  Tutil.check_bool "the first committer's state" true (balances db a b = (int (-40), int 50));
  (* The retry reads the committed peer and is rejected by the constraint. *)
  (match Db.with_txn db (fun txn -> Db.set_field txn b "bal" (int (-40))) with
  | () -> Alcotest.fail "the serial run committed a violating state"
  | exception Constraint_violation { cname = "joint"; _ } -> ());
  Tutil.check_bool "the store still satisfies joint" true (balances db a b = (int (-40), int 50));
  (* Transactions over objects the constraint does not read commit side by
     side, as before. *)
  let c, d = joint_accounts db in
  let tc = Db.begin_txn db and td = Db.begin_txn db in
  Db.set_field tc a "bal" (int 0);
  Db.set_field td c "bal" (int (-10));
  Db.commit tc;
  Db.commit td;
  Tutil.check_bool "disjoint commits both land" true
    (balances db a b = (int 0, int 50) && balances db c d = (int (-10), int 50));
  Db.close db

(* The same skew through a trigger condition that reads another object:
   neither transaction alone makes [overdrawn] true on its snapshot, so
   without the read check the condition becomes true unseen and never
   fires. The second committer conflicts; its retry sees the first's
   write and fires the trigger once. *)
let trigger_write_skew () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class acct { bal: int; peer: ref acct;
           trigger perpetual overdrawn(): bal + peer.bal < 0 ==> { print "overdrawn"; }; };|});
  let fired = ref 0 in
  Db.set_action_printer db (fun _ -> incr fired);
  Db.create_cluster db "acct";
  let a, b = joint_accounts db in
  Db.with_txn db (fun txn -> ignore (Db.activate txn b "overdrawn" []));
  let ta = Db.begin_txn db and tb = Db.begin_txn db in
  Db.set_field ta a "bal" (int (-40));
  Db.set_field tb b "bal" (int (-40));
  Db.commit ta;
  (match Db.commit tb with
  | () -> Alcotest.fail "both sides of the write skew committed"
  | exception Txn_conflict _ -> ());
  Tutil.check_int "nothing fired yet" 0 !fired;
  Db.with_txn db (fun txn -> Db.set_field txn b "bal" (int (-40)));
  Tutil.check_int "the retry fires once" 1 !fired;
  Tutil.check_bool "both updates landed" true (balances db a b = (int (-40), int (-40)));
  Db.close db

(* One WAL frame per commit, whatever the size of the write set: a one-key
   commit and a commit of 100 objects (their headers, index entries and
   the meta record) each append exactly one record. *)
let one_wal_frame_per_commit () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class w { n: int; };");
  Db.create_cluster db "w";
  Db.create_index db ~cls:"w" ~field:"n";
  let appends f =
    let before = Ode_util.Stats.snapshot () in
    Db.with_txn db f;
    Ode_util.Stats.get (Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) before) "wal_appends"
  in
  Tutil.check_int "a one-key commit" 1 (appends (fun txn -> Db.set_root txn "r" (int 1)));
  Tutil.check_int "a 100-object commit" 1
    (appends (fun txn ->
         for i = 1 to 100 do
           ignore (Db.pnew txn "w" [ ("n", int i) ])
         done));
  Tutil.check_int "a read-only commit" 0 (appends (fun _ -> ()));
  Db.close db

let constraint_violation_aborts () =
  let db = Tutil.open_university () in
  (* gpa constraint: 0.0 <= gpa <= 4.0 *)
  (match
     Db.with_txn db (fun txn ->
         ignore (Db.pnew txn "student" [ ("name", str "bad"); ("gpa", Value.Float 9.0) ]))
   with
  | _ -> Alcotest.fail "violation not raised"
  | exception Constraint_violation { cls = "student"; cname = "gpa_range"; _ } -> ());
  (* The whole transaction rolled back, including unrelated writes. *)
  let n =
    Db.with_txn db (fun _ -> Ode.Query.count db ~var:"x" ~cls:"student" ())
  in
  Tutil.check_int "nothing persisted" 0 n;
  (* Violation via update too. *)
  let oid =
    Db.with_txn db (fun txn -> Db.pnew txn "student" [ ("name", str "ok"); ("gpa", Value.Float 3.0) ])
  in
  (match Db.with_txn db (fun txn -> Db.set_field txn oid "gpa" (Value.Float (-1.0))) with
  | _ -> Alcotest.fail "update violation not raised"
  | exception Constraint_violation _ -> ());
  Db.with_txn db (fun txn ->
      Tutil.check_value "old value preserved" (Value.Float 3.0) (Db.get_field txn oid "gpa"));
  Db.close db

let constraint_inherited_from_parent () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class account { balance: int; constraint solvent: balance >= 0; };
         class savings : account { rate: float; };|});
  Db.create_cluster db "account";
  Db.create_cluster db "savings";
  (match
     Db.with_txn db (fun txn -> ignore (Db.pnew txn "savings" [ ("balance", int (-5)) ]))
   with
  | _ -> Alcotest.fail "inherited constraint not checked"
  | exception Constraint_violation { cls = "savings"; cname = "solvent"; _ } -> ());
  Db.close db

(* A commit that touches many objects of a class without constraints and
   one subclass object that breaks its superclass's constraint still
   aborts, whole; the rule-less objects are not checked. A subclass object
   deleted in the commit that broke the constraint has nothing to
   satisfy. *)
let inherited_constraint_beside_ruleless () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class account { balance: int; constraint solvent: balance >= 0; };
         class savings : account { rate: float; };
         class note { text: string; };|});
  List.iter (Db.create_cluster db) [ "account"; "savings"; "note" ];
  let notes () = Db.with_txn db (fun _ -> Ode.Query.count db ~var:"x" ~cls:"note" ()) in
  let checked f =
    let before = Ode_util.Stats.snapshot () in
    let v = f () in
    (v, Ode_util.Stats.(get (diff (snapshot ()) before) "constraints_checked"))
  in
  let s, n =
    checked (fun () ->
        Db.with_txn db (fun txn ->
            for k = 1 to 20 do
              ignore (Db.pnew txn "note" [ ("text", str (string_of_int k)) ])
            done;
            Db.pnew txn "savings" [ ("balance", int 10) ]))
  in
  Tutil.check_int "one object has a constraint to check" 1 n;
  (match
     Db.with_txn db (fun txn ->
         for k = 1 to 20 do
           ignore (Db.pnew txn "note" [ ("text", str (string_of_int k)) ])
         done;
         Db.set_field txn s "balance" (int (-5)))
   with
  | _ -> Alcotest.fail "the inherited constraint was not checked"
  | exception Constraint_violation { cls = "savings"; cname = "solvent"; _ } -> ());
  Tutil.check_int "the notes rolled back with it" 20 (notes ());
  Db.with_txn db (fun txn ->
      Db.set_field txn s "balance" (int (-5));
      Db.pdelete txn s;
      ignore (Db.pnew txn "note" [ ("text", str "last") ]));
  Tutil.check_int "the deleting commit went through" 21 (notes ());
  Db.close db

let methods_dispatch_dynamically () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      let p = Db.pnew txn "person" [ ("name", str "p") ] in
      let f = Db.pnew txn "faculty" [ ("name", str "f") ] in
      Tutil.check_value "base" (str "person p") (Db.call txn p "describe" []);
      Tutil.check_value "derived" (str "faculty f") (Db.call txn f "describe" []));
  Db.close db

let is_instance_tests () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      let s = Db.pnew txn "student" [ ("name", str "s") ] in
      Tutil.check_bool "is person" true (Db.is_instance db s "person");
      Tutil.check_bool "is student" true (Db.is_instance db s "student");
      Tutil.check_bool "not faculty" false (Db.is_instance db s "faculty");
      (* The surface operator goes through eval. *)
      Tutil.check_value "is operator" (Value.Bool true)
        (Db.eval txn ~vars:[ ("s", Value.Ref s) ] (Ode_lang.Parser.expr "s is person")));
  Db.close db

let roots_persist () =
  let dir = Tutil.temp_dir "roots" in
  let db = Db.open_ dir in
  ignore (Db.define db "class cfg { v: int; };");
  Db.create_cluster db "cfg";
  let oid =
    Db.with_txn db (fun txn ->
        let oid = Db.pnew txn "cfg" [ ("v", int 7) ] in
        Db.set_root txn "config" (Value.Ref oid);
        Db.set_root txn "greeting" (str "hi");
        oid)
  in
  Db.close db;
  let db2 = Db.open_ dir in
  Db.with_txn db2 (fun txn ->
      Tutil.check_value "ref root" (Value.Ref oid) (Db.root_exn txn "config");
      Tutil.check_value "str root" (str "hi") (Db.root_exn txn "greeting");
      Tutil.check_bool "missing root" true (Db.root txn "nope" = None));
  Db.close db2

let ddl_rejected_inside_txn () =
  let db = Tutil.open_university () in
  let txn = Db.begin_txn db in
  (match Db.define db "class x { a: int; };" with
  | _ -> Alcotest.fail "DDL inside txn allowed"
  | exception Ode_util.Ode_error.Error { cls = User; msg } ->
      Tutil.check_string "refusal" "define_class cannot run inside a transaction" msg);
  Db.abort txn;
  Db.close db

let bad_method_body_rolls_back_class () =
  let db = Db.open_in_memory () in
  (match Db.define db "class broken { q: int; method m(): string = q + 1; };" with
  | _ -> Alcotest.fail "expected type error"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ());
  (* The class must not linger half-defined. *)
  Tutil.check_bool "not registered" true
    (Ode_model.Catalog.find (Db.catalog db) "broken" = None);
  ignore (Db.define db "class broken { q: int; };");
  Db.close db

(* A closed or crashed handle holds no page of its three buffer pools, so
   a caller that keeps it while reopening the store does not keep the old
   pools alive. *)
let closed_handle_holds_no_pages () =
  let pools db =
    [ Ode_storage.Heap.pool db.kv_heap; Ode_index.Bptree.pool db.kv_dir; Ode_index.Bptree.pool db.idx ]
  in
  let resident db = List.map Ode_storage.Buffer_pool.resident (pools db) in
  let dir = Tutil.temp_dir "release" in
  let load db =
    ignore (Db.define db "class t { k: int; pad: string; };");
    Db.create_cluster db "t";
    Db.create_index db ~cls:"t" ~field:"k";
    Db.with_txn db (fun txn ->
        for i = 1 to 200 do
          ignore (Db.pnew txn "t" [ ("k", Value.Int i); ("pad", Value.Str (String.make 300 'x')) ])
        done)
  in
  let db = Db.open_ dir in
  load db;
  Tutil.check_bool "pages resident while open" true (List.for_all (fun n -> n > 0) (resident db));
  Db.close db;
  Alcotest.(check (list int)) "none after close" [ 0; 0; 0 ] (resident db);
  let db = Db.open_ dir in
  Db.with_txn db (fun txn -> ignore (Db.pnew txn "t" [ ("k", Value.Int 0) ]));
  Tutil.check_bool "pages resident after reopen" true (List.exists (fun n -> n > 0) (resident db));
  Db.crash db;
  Alcotest.(check (list int)) "none after crash" [ 0; 0; 0 ] (resident db);
  let db = Db.open_ dir in
  Tutil.check_int "the crashed commit recovered" 201 (Ode.Query.count db ~var:"x" ~cls:"t" ());
  Db.close db

(* An open that refuses its store closes every file it opened, whichever
   file refuses it: the process holds as many descriptors after it as
   before. The stores are refused by a directory tree with an older
   layout's magic (the tree attaches after the heap), a heap page that
   fails its checksum, and an index file that ends inside a page (the
   third file opened). *)
let refused_open_closes_files () =
  let module Disk = Ode_storage.Disk in
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let base = Filename.concat (Tutil.temp_dir "refused") "base" in
  let db = Db.open_ base in
  ignore (Db.define db "class t { k: int; };");
  Db.create_cluster db "t";
  Db.with_txn db (fun txn -> ignore (Db.pnew txn "t" [ ("k", Value.Int 1) ]));
  Db.close db;
  let refused what file damage =
    let dir = Filename.concat (Tutil.temp_dir "refused") "store" in
    Tutil.copy_dir base dir;
    damage (Filename.concat dir file);
    let before = fds () in
    (match Db.open_ dir with
    | db ->
        Db.close db;
        Alcotest.failf "the store with %s opened" what
    | exception _ -> ());
    Tutil.check_int (what ^ ": descriptors after the refused open") before (fds ())
  in
  refused "an older tree layout" "directory.bpt" (fun path ->
      let d = Disk.open_file path in
      let page = Disk.read d 0 in
      Ode_storage.Bigbytes.blit_from_string "ODEBPT01" 0 page 0 8;
      Disk.write_batch d [ (0, page) ];
      Disk.close d);
  refused "a flipped heap byte" "objects.heap" (fun path ->
      let contents = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      Bytes.set_uint8 contents 100 (Bytes.get_uint8 contents 100 lxor 0xff);
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc contents));
  refused "a partial index page" "indexes.bpt" (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          Out_channel.output_string oc (String.make 100 'x')))

let suite =
  [
    ( "database",
      [
        Alcotest.test_case "pnew and read with defaults" `Quick pnew_and_read;
        Alcotest.test_case "pnew requires a cluster" `Quick pnew_requires_cluster;
        Alcotest.test_case "pnew type-checks values" `Quick pnew_type_checks;
        Alcotest.test_case "ref fields check target class" `Quick ref_fields_check_class;
        Alcotest.test_case "update and delete" `Quick update_and_delete;
        Alcotest.test_case "abort discards everything" `Quick abort_discards;
        Alcotest.test_case "read-your-writes" `Quick txn_sees_own_writes;
        Alcotest.test_case "concurrent transactions" `Quick concurrent_txns;
        Alcotest.test_case "first committer wins" `Quick first_committer_wins;
        Alcotest.test_case "constraint write skew conflicts" `Quick constraint_write_skew;
        Alcotest.test_case "trigger write skew conflicts" `Quick trigger_write_skew;
        Alcotest.test_case "one WAL frame per commit" `Quick one_wal_frame_per_commit;
        Alcotest.test_case "constraint violation aborts txn" `Quick constraint_violation_aborts;
        Alcotest.test_case "constraints inherit" `Quick constraint_inherited_from_parent;
        Alcotest.test_case "inherited constraint beside rule-less objects" `Quick inherited_constraint_beside_ruleless;
        Alcotest.test_case "dynamic method dispatch" `Quick methods_dispatch_dynamically;
        Alcotest.test_case "is-instance tests" `Quick is_instance_tests;
        Alcotest.test_case "named roots persist" `Quick roots_persist;
        Alcotest.test_case "DDL rejected inside txn" `Quick ddl_rejected_inside_txn;
        Alcotest.test_case "failed class definition rolls back" `Quick bad_method_body_rolls_back_class;
        Alcotest.test_case "closed handle holds no pages" `Quick closed_handle_holds_no_pages;
        Alcotest.test_case "a refused open closes its files" `Quick refused_open_closes_files;
      ] );
  ]
