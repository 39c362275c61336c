(* MVCC unit tests (version chains, visibility, first-committer-wins, GC)
   plus database-level snapshot-isolation behaviour that exercises the
   chain-merge scan path. *)

module Db = Ode.Database
module Mvcc = Ode.Mvcc
module Value = Ode_model.Value
open Ode.Types

let str s = Value.Str s
let int n = Value.Int n

let vis =
  Alcotest.testable
    (fun ppf -> function
      | Mvcc.Latest -> Fmt.string ppf "Latest"
      | Mvcc.Older None -> Fmt.string ppf "Older None"
      | Mvcc.Older (Some s) -> Fmt.pf ppf "Older (Some %S)" s)
    ( = )

let check_vis = Alcotest.check vis

(* A commit of (key, new value) pairs, every key versioned. *)
let commit m ~ts ~except ~pre writes =
  Mvcc.commit m ~ts ~except ~pre ~versioned:(fun _ -> true)
    (Array.of_list (List.map (fun (k, v) -> (k, match v with Some s -> Put s | None -> Del)) writes))

(* The first of [keys] committed past [read_ts]. *)
let conflict m ~read_ts keys = List.find_opt (fun k -> Mvcc.conflict m ~read_ts k) keys

(* -- unit: visibility through a version chain ----------------------------- *)

let visibility () =
  let m = Mvcc.create () in
  (* No chains: everything is Latest, snapshot or not. *)
  check_vis "empty store" Mvcc.Latest (Mvcc.read m ~read_ts:0 "k");
  let tok = Mvcc.snapshot m ~read_ts:5 in
  commit m ~ts:10 ~except:0 ~pre:(fun _ -> Some "old") [ ("k", Some "new") ];
  check_vis "snapshot predates the commit" (Mvcc.Older (Some "old"))
    (Mvcc.read m ~read_ts:5 "k");
  check_vis "at the commit ts the head is visible" Mvcc.Latest (Mvcc.read m ~read_ts:10 "k");
  commit m ~ts:20 ~except:0 ~pre:(fun _ -> assert false) [ ("k", Some "newer") ];
  check_vis "middle version for a middle snapshot" (Mvcc.Older (Some "new"))
    (Mvcc.read m ~read_ts:15 "k");
  check_vis "oldest snapshot still sees the base" (Mvcc.Older (Some "old"))
    (Mvcc.read m ~read_ts:5 "k");
  Tutil.check_string_list "keys_matching finds the chain" [ "k" ]
    (Mvcc.keys_matching m (fun _ -> true));
  Mvcc.release m tok

let tombstones () =
  let m = Mvcc.create () in
  let tok = Mvcc.snapshot m ~read_ts:5 in
  (* Delete after the snapshot: the snapshot keeps the pre-image. *)
  commit m ~ts:10 ~except:0 ~pre:(fun _ -> Some "alive") [ ("dead", None) ];
  check_vis "pre-image survives the delete" (Mvcc.Older (Some "alive"))
    (Mvcc.read m ~read_ts:5 "dead");
  check_vis "deleter's own view is Latest" Mvcc.Latest (Mvcc.read m ~read_ts:10 "dead");
  (* Create after the snapshot: the base entry is a tombstone, so the
     snapshot sees "no such key". *)
  commit m ~ts:11 ~except:0 ~pre:(fun _ -> None) [ ("born", Some "x") ];
  check_vis "created-after-snapshot is invisible" (Mvcc.Older None)
    (Mvcc.read m ~read_ts:5 "born");
  Mvcc.release m tok

let conflict_check () =
  let m = Mvcc.create () in
  let a = Mvcc.snapshot m ~read_ts:5 in
  let b = Mvcc.snapshot m ~read_ts:5 in
  (* a commits "x" at ts 6 (recorded because b is live). *)
  commit m ~ts:6 ~except:a ~pre:(fun _ -> None) [ ("x", Some "a") ];
  Mvcc.release m a;
  Alcotest.(check (option string))
    "b's write-set now conflicts" (Some "x")
    (conflict m ~read_ts:5 [ "y"; "x" ]);
  Alcotest.(check (option string))
    "disjoint write-set does not" None
    (conflict m ~read_ts:5 [ "y"; "z" ]);
  Alcotest.(check (option string))
    "a later snapshot does not" None
    (conflict m ~read_ts:6 [ "x" ]);
  Mvcc.release m b

let gc_horizon () =
  let m = Mvcc.create () in
  let old_snap = Mvcc.snapshot m ~read_ts:5 in
  let mid_snap = Mvcc.snapshot m ~read_ts:15 in
  commit m ~ts:10 ~except:0 ~pre:(fun _ -> Some "base") [ ("k", Some "v10") ];
  commit m ~ts:20 ~except:0 ~pre:(fun _ -> assert false) [ ("k", Some "v20") ];
  Mvcc.gc m;
  (* Horizon 5: every version is still reachable by some snapshot. *)
  check_vis "old snapshot sees the base" (Mvcc.Older (Some "base"))
    (Mvcc.read m ~read_ts:5 "k");
  Mvcc.release m old_snap;
  Mvcc.gc m;
  (* Horizon 15: the base entry (superseded by ts 10 <= 15) is reclaimable. *)
  check_vis "mid snapshot sees v10" (Mvcc.Older (Some "v10")) (Mvcc.read m ~read_ts:15 "k");
  Tutil.check_bool "something was reclaimed" true (Mvcc.reclaimed_total m > 0);
  Mvcc.release m mid_snap;
  (* No snapshots left: the whole table empties. *)
  Tutil.check_int "no chains survive the last release" 0 (Mvcc.chain_count m);
  Tutil.check_int "no dead versions either" 0 (Mvcc.dead_versions m);
  check_vis "reads are Latest again" Mvcc.Latest (Mvcc.read m ~read_ts:5 "k")

(* -- database-level: snapshot scans through the chain merge --------------- *)

(* An extent scan from an old snapshot must still surface an object whose
   directory entry a later commit deleted: the candidate comes from the
   version chain, not the B+tree. *)
let snapshot_scan_sees_deleted () =
  let db = Tutil.open_university () in
  let a, b =
    Db.with_txn db (fun txn ->
        ( Db.pnew txn "person" [ ("name", str "a"); ("age", int 1) ],
          Db.pnew txn "person" [ ("name", str "b"); ("age", int 2) ] ))
  in
  let t1 = Db.begin_txn db in
  Tutil.check_int "snapshot sees both" 2 (Ode.Query.count db ~txn:t1 ~var:"x" ~cls:"person" ());
  Db.with_txn db (fun txn -> Db.pdelete txn b);
  Tutil.check_bool "deleted object still exists for the snapshot" true
    (Db.exists db ~txn:t1 b);
  Tutil.check_int "snapshot extent scan still finds it" 2
    (Ode.Query.count db ~txn:t1 ~var:"x" ~cls:"person" ());
  Tutil.check_value "and reads its pre-image fields" (str "b") (Db.get_field t1 b "name");
  Db.abort t1;
  Db.with_txn db (fun txn ->
      Tutil.check_bool "gone for later transactions" false (Db.exists db ~txn b);
      Tutil.check_bool "the other object remains" true (Db.exists db ~txn a));
  Db.close db

(* An indexed probe from an old snapshot: the index entry moved (the field
   was updated after the snapshot), so the old value's entry comes from the
   chain and the new value's entry is filtered by re-evaluation. *)
let snapshot_index_probe () =
  let db = Tutil.open_university () in
  Db.create_index db ~cls:"person" ~field:"age";
  let o =
    Db.with_txn db (fun txn -> Db.pnew txn "person" [ ("name", str "i"); ("age", int 30) ])
  in
  let t1 = Db.begin_txn db in
  Db.with_txn db (fun txn -> Db.set_field txn o "age" (int 40));
  let count age =
    Ode.Query.count db ~txn:t1 ~var:"x" ~cls:"person"
      ~suchthat:(Ode_lang.Parser.expr (Printf.sprintf "x.age = %d" age))
      ()
  in
  Tutil.check_int "old value still matches under the snapshot" 1 (count 30);
  Tutil.check_int "new value does not" 0 (count 40);
  Db.abort t1;
  Db.close db

let gc_after_release () =
  let db = Tutil.open_university () in
  let o =
    Db.with_txn db (fun txn -> Db.pnew txn "person" [ ("name", str "g"); ("age", int 1) ])
  in
  let t1 = Db.begin_txn db in
  Db.with_txn db (fun txn -> Db.set_field txn o "age" (int 2));
  Tutil.check_bool "chains recorded while the snapshot lives" true (Db.mvcc_chains db > 0);
  Db.abort t1;
  Tutil.check_int "last release empties the chains" 0 (Db.mvcc_chains db);
  Tutil.check_bool "reclaim counted" true (Db.mvcc_reclaimed db > 0);
  Tutil.check_int "no snapshots registered" 0 (Db.live_snapshots db);
  Db.close db

(* -- detached read transactions ------------------------------------------ *)

(* A write attempt inside a detached read transaction raises before any
   shared state is touched, so the server can replay the request in an
   ordinary transaction. *)
let read_txn_rejects_writes () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class cell { a: int; b: int; };");
  Db.create_cluster db "cell";
  let oid = Db.with_txn db (fun txn -> Db.pnew txn "cell" [ ("a", int 1); ("b", int 1) ]) in
  (match Db.with_read_txn db (fun txn -> Db.pnew txn "cell" []) with
  | _ -> Alcotest.fail "pnew in a read txn must raise"
  | exception Read_only_txn -> ());
  (match Db.with_read_txn db (fun txn -> Db.set_field txn oid "a" (int 9)) with
  | _ -> Alcotest.fail "set_field in a read txn must raise"
  | exception Read_only_txn -> ());
  (match Db.with_read_txn db (fun txn -> Db.pdelete txn oid) with
  | _ -> Alcotest.fail "pdelete in a read txn must raise"
  | exception Read_only_txn -> ());
  (* Nothing leaked: the population and the field are untouched, and the
     engine's single transaction slot is still free. *)
  Tutil.check_int "population untouched" 1 (Ode.Query.count db ~var:"x" ~cls:"cell" ());
  Db.with_txn db (fun txn ->
      Tutil.check_value "field untouched" (int 1) (Db.get_field txn oid "a"));
  Db.close db

(* The server's interleaving in miniature, seeded: one domain nests up to
   three detached read transactions, each straddling the next, around a
   commit that updates one object (a = b in every committed state) or,
   every 16th step, deletes one and mints a replacement. Every read sees
   a = b; a snapshot reads the same object the same before and after the
   commits it straddles; a fresh snapshot sees each commit. Afterwards
   every object reads the same after a reopen, and Verify passes before
   and after it. *)
let stress_reads_and_commits () =
  let dir = Tutil.temp_dir "ode-mc" in
  let db = Db.open_ dir in
  ignore (Db.define db "class cell { a: int; b: int; };");
  Db.create_cluster db "cell";
  let nobjs = 32 in
  let oids =
    Array.init nobjs (fun i ->
        Db.with_txn db (fun txn -> Db.pnew txn "cell" [ ("a", int i); ("b", int i) ]))
  in
  let torn = ref 0 and unstable = ref 0 and stale = ref 0 and reads = ref 0 in
  let read txn oid =
    match Db.get txn oid with
    | None -> None
    | Some fields -> (
        match (List.assoc "a" fields, List.assoc "b" fields) with
        | Value.Int a, Value.Int b when a = b -> Some a
        | _ ->
            incr torn;
            None)
  in
  let rng = Random.State.make [| 42 |] in
  for i = 1 to 400 do
    let slot = Random.State.int rng nobjs in
    let commit () =
      if i mod 16 = 0 then
        Db.with_txn db (fun txn ->
            Db.pdelete txn oids.(slot);
            oids.(slot) <- Db.pnew txn "cell" [ ("a", int i); ("b", int i) ])
      else
        Db.with_txn db (fun txn -> Db.update txn oids.(slot) [ ("a", int i); ("b", int i) ])
    in
    let rec straddle depth =
      if depth = 0 then commit ()
      else
        Db.with_read_txn db (fun txn ->
            let oid = oids.(Random.State.int rng nobjs) in
            let before = read txn oid in
            straddle (depth - 1);
            incr reads;
            if read txn oid <> before then incr unstable)
    in
    straddle (1 + Random.State.int rng 3);
    if Db.with_read_txn db (fun txn -> read txn oids.(slot)) <> Some i then incr stale
  done;
  Tutil.check_int "no torn reads" 0 !torn;
  Tutil.check_int "snapshots stable across commits" 0 !unstable;
  Tutil.check_int "fresh snapshots see each commit" 0 !stale;
  Tutil.check_bool "readers made progress" true (!reads >= 400);
  let snap db oid = Db.with_read_txn db (fun txn -> Db.get txn oid) in
  let before = Array.map (snap db) oids in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after stress: %s" (String.concat "; " ps));
  Tutil.check_int "population stable" nobjs (Ode.Query.count db ~var:"x" ~cls:"cell" ());
  Db.close db;
  (* And the directory reopens clean. *)
  let db2 = Db.open_ dir in
  (match Ode.Verify.run db2 with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after reopen: %s" (String.concat "; " ps));
  Array.iteri
    (fun i oid ->
      if snap db2 oid <> before.(i) then Alcotest.failf "object %d reads differently after reopen" i)
    oids;
  Tutil.check_int "population persisted" nobjs (Ode.Query.count db2 ~var:"x" ~cls:"cell" ());
  Db.close db2

let suite =
  [
    ( "mvcc",
      [
        Alcotest.test_case "visibility through chains" `Quick visibility;
        Alcotest.test_case "tombstones" `Quick tombstones;
        Alcotest.test_case "first-committer-wins check" `Quick conflict_check;
        Alcotest.test_case "gc horizon" `Quick gc_horizon;
        Alcotest.test_case "snapshot scan sees deleted" `Quick snapshot_scan_sees_deleted;
        Alcotest.test_case "snapshot index probe" `Quick snapshot_index_probe;
        Alcotest.test_case "gc after release" `Quick gc_after_release;
        Alcotest.test_case "read txn rejects writes before shared state" `Quick
          read_txn_rejects_writes;
        Alcotest.test_case "stress: read txns straddle commits, seeded" `Quick
          stress_reads_and_commits;
      ] );
  ]
