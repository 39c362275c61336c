(* The read path: every read goes overlay -> MVCC chain -> committed
   record, so a transaction sees its own writes, an abort leaves the
   committed state, and a reopen after a crash reads what was committed.
   The query executor fetches each candidate's record once and its loop
   body reads the current row's fields from that record, unless the
   transaction wrote the object since. *)

module Db = Ode.Database
module Store = Ode.Store
module Value = Ode_model.Value
module Stats = Ode_util.Stats
module Parser = Ode_lang.Parser

let setup () =
  let db = Db.open_in_memory () in
  ignore (Db.define db {|class pt { x: int; y: int; };|});
  Db.create_cluster db "pt";
  db

let mk db n =
  Db.with_txn db (fun txn ->
      List.init n (fun i -> Db.pnew txn "pt" [ ("x", Value.Int i); ("y", Value.Int 0) ]))

let fetched f =
  let s0 = Stats.snapshot () in
  let v = f () in
  (v, Stats.(get (diff (snapshot ()) s0) "objects_fetched"))

let read_your_writes () =
  let db = setup () in
  let o = List.hd (mk db 1) in
  Db.with_txn db (fun txn ->
      Db.set_field txn o "x" (Value.Int 42);
      Tutil.check_bool "txn sees its write" true (Db.get_field txn o "x" = Value.Int 42));
  Tutil.check_bool "committed read sees the new value" true
    (Store.get_field db None o "x" = Some (Value.Int 42));
  Db.close db

let abort_leaves_committed () =
  let db = setup () in
  let o = List.hd (mk db 1) in
  let txn = Db.begin_txn db in
  Db.set_field txn o "x" (Value.Int 99);
  Db.abort txn;
  Tutil.check_bool "committed value survives the abort" true
    (Store.get_field db None o "x" = Some (Value.Int 0));
  Db.close db

let commit_reads_new_state () =
  let db = setup () in
  let oids = mk db 3 in
  let a = List.nth oids 0 and b = List.nth oids 1 in
  Db.with_txn db (fun txn -> Db.set_field txn a "x" (Value.Int 7));
  Tutil.check_bool "written object reads its new value" true
    (Store.get_field db None a "x" = Some (Value.Int 7));
  Tutil.check_bool "untouched object reads as before" true
    (Store.get_fields db None b = Some [ ("x", Value.Int 1); ("y", Value.Int 0) ]);
  Db.close db

let crash_reopen_committed () =
  let dir = Tutil.temp_dir "readpath" in
  let db = Db.open_ dir in
  ignore (Db.define db {|class pt { x: int; y: int; };|});
  Db.create_cluster db "pt";
  let o = Db.with_txn db (fun txn -> Db.pnew txn "pt" [ ("x", Value.Int 1) ]) in
  ignore (Store.get_fields db None o);
  Db.with_txn db (fun txn -> Db.set_field txn o "x" (Value.Int 2));
  Db.crash db;
  let db2 = Db.open_ dir in
  Tutil.check_bool "reopen reads the committed value" true
    (Store.get_field db2 None o "x" = Some (Value.Int 2));
  Db.close db2

(* A predicate reading two fields and a sort key reading a third still
   fetch each candidate's record once. *)
let scan_fetches_once () =
  let db = setup () in
  ignore (mk db 200);
  let n, f =
    fetched (fun () ->
        Ode.Query.count db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x + p.y > 10") ())
  in
  Tutil.check_int "count" 189 n;
  Tutil.check_int "one fetch per candidate" 200 f;
  let l, f =
    fetched (fun () ->
        Ode.Query.to_list db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x < 5")
          ~by:(Parser.expr "p.y - p.x", Ode_lang.Ast.Asc) ())
  in
  Tutil.check_int "sorted rows" 5 (List.length l);
  Tutil.check_int "sort keys read the fetched record" 200 f;
  Db.close db

(* The loop body's reads of the current row come from the fetched record;
   after the body writes the object, they see the write. *)
let body_reads_row () =
  let db = setup () in
  ignore (mk db 50);
  let out = Buffer.create 64 in
  let sh = Ode.Shell.create ~print:(Buffer.add_string out) db in
  let run src = List.iter (Ode.Shell.exec_top sh) (Parser.program src) in
  let (), f =
    fetched (fun () -> run "s := 0; forall p in pt suchthat p.x >= 45 { s := s + p.x + p.y; } print s;")
  in
  Tutil.check_bool "sum" true (String.trim (Buffer.contents out) = "235");
  Tutil.check_int "no fetch beyond the scan's" 50 f;
  Buffer.clear out;
  run "forall p in pt suchthat p.x == 3 { p.y := p.x + 10; print p.y; }";
  Tutil.check_bool "body sees its own write" true (String.trim (Buffer.contents out) = "13");
  Db.close db

let exists_early_exit () =
  let db = setup () in
  ignore (mk db 500);
  let s0 = Stats.(get (snapshot ()) "objects_scanned") in
  Tutil.check_bool "exists finds a match" true
    (Ode.Query.exists db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x == 0") ());
  let s1 = Stats.(get (snapshot ()) "objects_scanned") in
  Tutil.check_int "first-object match scans one object" 1 (s1 - s0);
  Tutil.check_bool "exists with no match is false" false
    (Ode.Query.exists db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x == 0 - 1") ());
  Db.close db

(* Counter gate for the read path: with every pool emptied, reading a
   current object is one directory probe and one record decode, whatever
   its version history. A small object's record lives in its directory
   leaf, so the read touches no page of the heap. *)
let cold_current_read_is_one_lookup () =
  let dir = Tutil.temp_dir "cold" in
  let db = Db.open_ dir in
  ignore (Db.define db {|class pt { x: int; y: int; };|});
  Db.create_cluster db "pt";
  Db.create_index db ~cls:"pt" ~field:"x";
  let oids = mk db 300 in
  let versioned = List.nth oids 7 in
  for i = 1 to 3 do
    Db.with_txn db (fun txn ->
        ignore (Db.newversion txn versioned);
        Db.set_field txn versioned "y" (Value.Int i))
  done;
  Db.checkpoint db;
  let cold_read o =
    List.iter Ode_storage.Buffer_pool.drop_cache
      [
        Ode_index.Bptree.pool db.Ode.Types.kv_dir;
        Ode_storage.Heap.pool db.Ode.Types.kv_heap;
        Ode_index.Bptree.pool db.Ode.Types.idx;
      ];
    let s0 = Stats.snapshot () in
    let fields = Store.get_fields db None o in
    let d = Stats.(diff (snapshot ()) s0) in
    Tutil.check_bool "read from disk" true (Stats.get d "pages_read" > 0);
    Tutil.check_int "one directory probe" 1 (Stats.get d "index_probes");
    Tutil.check_int "one record decoded" 1 (Stats.get d "objects_fetched");
    Tutil.check_int "no heap page read" 0
      (Ode_storage.Buffer_pool.resident (Ode_storage.Heap.pool db.Ode.Types.kv_heap));
    fields
  in
  Tutil.check_bool "plain object" true
    (cold_read (List.nth oids 3) = Some [ ("x", Value.Int 3); ("y", Value.Int 0) ]);
  Tutil.check_bool "versioned object" true
    (cold_read versioned = Some [ ("x", Value.Int 7); ("y", Value.Int 3) ]);
  Db.close db

(* Counter gate for the write path: a commit sends each B+tree its puts
   and deletes as one sorted batch, and finds the directory entries of
   its keys by ascending lookups, so it costs one descent per directory
   leaf its keys fall in, for the lookups, and one per leaf run of each
   tree, for the batches. The 100 objects' header keys all sit in one
   directory leaf, and their index entries in one index leaf. Re-keying
   them looks up their 100 header keys in one descent, then descends once
   into the directory's leaf and once into the index leaf: 3. Deleting
   them does the same. When each key was looked up with a descent of its
   own, each commit made 102 probes: the 100 lookups and the two runs;
   when deletes went key by key, each took four probes (a membership
   test, the delete's lookup and its descent, and the index entry's
   descent): 400 for the deletes, 202 for the re-keys. *)
let commit_probes () =
  let db = setup () in
  Db.create_index db ~cls:"pt" ~field:"x";
  let oids = mk db 100 in
  let probes f =
    let txn = Db.begin_txn db in
    List.iter (f txn) oids;
    let s0 = Stats.snapshot () in
    Db.commit txn;
    Stats.(get (diff (snapshot ()) s0) "index_probes")
  in
  Tutil.check_int "re-keying 100 objects" 3
    (probes (fun txn o ->
         match Db.get_field txn o "x" with
         | Value.Int x -> Db.set_field txn o "x" (Value.Int (x + 1000))
         | _ -> Alcotest.fail "non-int x"));
  Tutil.check_int "deleting 100 objects" 3 (probes Db.pdelete);
  (* Activation records live only in the store, keyed by object: a commit
     reads a touched object's records with one prefix lookup, which a
     class whose lineage declares no trigger skips. Updating one object
     of a class without triggers costs its header's lookup and the
     directory's leaf run; one already-activated object of a triggered
     class costs exactly one probe more. *)
  ignore
    (Db.define db
       {|class plain { v: int; };
         class armed { v: int; trigger low(n: int): v < n ==> { print "low"; }; };|});
  Db.create_cluster db "plain";
  Db.create_cluster db "armed";
  Db.set_action_printer db ignore;
  let p, a =
    Db.with_txn db (fun txn ->
        let a = Db.pnew txn "armed" [ ("v", Value.Int 100) ] in
        ignore (Db.activate txn a "low" [ Value.Int 0 ]);
        (Db.pnew txn "plain" [ ("v", Value.Int 100) ], a))
  in
  let update o =
    let txn = Db.begin_txn db in
    Db.set_field txn o "v" (Value.Int 50);
    let s0 = Stats.snapshot () in
    Db.commit txn;
    Stats.(get (diff (snapshot ()) s0) "index_probes")
  in
  Tutil.check_int "updating an object of a class without triggers" 2 (update p);
  Tutil.check_int "updating an activated object" 3 (update a);
  Db.close db

let suite =
  [
    ( "read_path",
      [
        Alcotest.test_case "read-your-writes in a txn" `Quick read_your_writes;
        Alcotest.test_case "abort leaves committed state" `Quick abort_leaves_committed;
        Alcotest.test_case "commit: reads see the new state" `Quick commit_reads_new_state;
        Alcotest.test_case "crash/reopen reads committed" `Quick crash_reopen_committed;
        Alcotest.test_case "a scan fetches each row once" `Quick scan_fetches_once;
        Alcotest.test_case "loop body reads the fetched row" `Quick body_reads_row;
        Alcotest.test_case "exists exits early" `Quick exists_early_exit;
        Alcotest.test_case "cold current read is one lookup" `Quick cold_current_read_is_one_lookup;
        Alcotest.test_case "a commit's probes are its lookups and runs" `Quick commit_probes;
      ] );
  ]
