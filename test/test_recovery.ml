(* Durability and crash recovery.

   "Crash" simulation: a database directory is copied while the engine still
   has dirty pages in its buffer pools — the copy contains exactly what a
   real crash would leave behind (synced WAL, arbitrarily stale data files).
   Opening the copy must recover every committed transaction. *)

module Db = Ode.Database
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let int n = Value.Int n

let setup dir =
  let db = Db.open_ dir in
  ignore (Db.define db "class acct { owner: string; balance: int; };");
  Db.create_cluster db "acct";
  db

let crash_copy src =
  let dst = Tutil.temp_dir "crash" in
  Sys.rmdir dst;
  Tutil.copy_dir src dst;
  dst

let survives_clean_close () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  let a = Db.with_txn db (fun txn -> Db.pnew txn "acct" [ ("owner", Value.Str "ann"); ("balance", int 10) ]) in
  Db.close db;
  let db2 = Db.open_ dir in
  Db.with_txn db2 (fun txn -> Tutil.check_value "balance" (int 10) (Db.get_field txn a "balance"));
  Db.close db2

let survives_crash_without_close () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  let a = Db.with_txn db (fun txn -> Db.pnew txn "acct" [ ("owner", Value.Str "bo"); ("balance", int 1) ]) in
  for i = 2 to 20 do
    Db.with_txn db (fun txn -> Db.set_field txn a "balance" (int i))
  done;
  (* Crash now: data files may be stale, WAL is synced. *)
  let snap = crash_copy dir in
  let db2 = Db.open_ snap in
  Db.with_txn db2 (fun txn ->
      Tutil.check_value "last committed balance" (int 20) (Db.get_field txn a "balance"));
  Db.close db2;
  Db.close db

let uncommitted_work_is_lost () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  let a = Db.with_txn db (fun txn -> Db.pnew txn "acct" [ ("owner", Value.Str "c"); ("balance", int 5) ]) in
  (* An open transaction at crash time. *)
  let txn = Db.begin_txn db in
  Db.set_field txn a "balance" (int 999);
  let ghost = Ode.Store.create txn (Ode_model.Catalog.find_exn (Db.catalog db) "acct") [] in
  let snap = crash_copy dir in
  Db.abort txn;
  let db2 = Db.open_ snap in
  Db.with_txn db2 (fun txn2 ->
      Tutil.check_value "update lost" (int 5) (Db.get_field txn2 a "balance");
      Tutil.check_bool "creation lost" false (Db.exists db2 ~txn:txn2 ghost));
  Db.close db2;
  Db.close db

let recovery_covers_everything () =
  (* Objects, versions, roots, indexes, trigger activations, schema — all
     through one crash. *)
  let dir = Tutil.temp_dir "rec" in
  let db = Db.open_ dir in
  ignore
    (Db.define db
       {|class gadget { label: string; qty: int;
           trigger low(n: int): qty < n ==> { print "low"; }; };|});
  Db.create_cluster db "gadget";
  Db.create_index db ~cls:"gadget" ~field:"qty";
  let g =
    Db.with_txn db (fun txn ->
        let g = Db.pnew txn "gadget" [ ("label", Value.Str "g"); ("qty", int 10) ] in
        ignore (Db.newversion txn g);
        Db.set_field txn g "qty" (int 20);
        Db.set_root txn "the-gadget" (Value.Ref g);
        ignore (Db.activate txn g "low" [ int 5 ]);
        g)
  in
  let snap = crash_copy dir in
  let db2 = Db.open_ snap in
  let log = Buffer.create 16 in
  Db.set_action_printer db2 (Buffer.add_string log);
  Db.with_txn db2 (fun txn ->
      Tutil.check_value "root" (Value.Ref g) (Db.root_exn txn "the-gadget");
      Tutil.check_bool "versions" true (Db.versions txn g = [ 0; 1 ]);
      let via_index =
        Ode.Query.count db2 ~var:"x" ~cls:"gadget" ~suchthat:(Parser.expr "x.qty == 20") ()
      in
      Tutil.check_int "index recovered" 1 via_index);
  (* The persisted activation still fires. *)
  Db.with_txn db2 (fun txn -> Db.set_field txn g "qty" (int 1));
  Tutil.check_bool "trigger recovered" true (String.trim (Buffer.contents log) = "low");
  Db.close db2;
  Db.close db

let oid_counters_recover () =
  (* New oids after recovery must not collide with pre-crash ones. *)
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  let a = Db.with_txn db (fun txn -> Db.pnew txn "acct" [ ("owner", Value.Str "x") ]) in
  let snap = crash_copy dir in
  let db2 = Db.open_ snap in
  let b = Db.with_txn db2 (fun txn -> Db.pnew txn "acct" [ ("owner", Value.Str "y") ]) in
  Tutil.check_bool "fresh oid" false (Ode_model.Oid.equal a b);
  Tutil.check_int "extent complete" 2
    (Db.with_txn db2 (fun _ -> Ode.Query.count db2 ~var:"x" ~cls:"acct" ()));
  Db.close db2;
  Db.close db

let checkpoint_bounds_wal () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  for i = 1 to 50 do
    Db.with_txn db (fun txn -> ignore (Db.pnew txn "acct" [ ("balance", int i) ]))
  done;
  Db.checkpoint db;
  Tutil.check_int "wal empty after checkpoint" 0 (Ode.Txn.wal_bytes db);
  (* Data survives a crash right after the checkpoint. *)
  let snap = crash_copy dir in
  let db2 = Db.open_ snap in
  Tutil.check_int "all rows" 50 (Db.with_txn db2 (fun _ -> Ode.Query.count db2 ~var:"x" ~cls:"acct" ()));
  Db.close db2;
  Db.close db

let repeated_crashes () =
  (* Crash-recover-crash-recover: recovery must be idempotent. *)
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  let a = Db.with_txn db (fun txn -> Db.pnew txn "acct" [ ("balance", int 1) ]) in
  Db.with_txn db (fun txn -> Db.set_field txn a "balance" (int 2));
  let snap1 = crash_copy dir in
  Db.close db;
  let db1 = Db.open_ snap1 in
  Db.with_txn db1 (fun txn -> Db.set_field txn a "balance" (int 3));
  let snap2 = crash_copy snap1 in
  Db.close db1;
  let db2 = Db.open_ snap2 in
  (* Open twice more without any writes. *)
  Db.close db2;
  let db3 = Db.open_ snap2 in
  Db.with_txn db3 (fun txn -> Tutil.check_value "final state" (int 3) (Db.get_field txn a "balance"));
  Tutil.check_int "no duplicates" 1 (Db.with_txn db3 (fun _ -> Ode.Query.count db3 ~var:"x" ~cls:"acct" ()));
  Db.close db3

let big_objects_survive () =
  let dir = Tutil.temp_dir "rec" in
  let db = Db.open_ dir in
  ignore (Db.define db "class blob { data: string; };");
  Db.create_cluster db "blob";
  let payload = String.init 30_000 (fun i -> Char.chr (32 + (i mod 90))) in
  let b = Db.with_txn db (fun txn -> Db.pnew txn "blob" [ ("data", Value.Str payload) ]) in
  let snap = crash_copy dir in
  let db2 = Db.open_ snap in
  Db.with_txn db2 (fun txn ->
      Tutil.check_value "chunked payload recovered" (Value.Str payload) (Db.get_field txn b "data"));
  Db.close db2;
  Db.close db

let stat name f =
  let before = Ode_util.Stats.snapshot () in
  let v = f () in
  (v, Ode_util.Stats.(get (diff (snapshot ()) before) name))

let fill db n =
  Db.with_txn db (fun txn ->
      for i = 1 to n do
        ignore (Db.pnew txn "acct" [ ("owner", Value.Str (String.make 200 'o')); ("balance", int i) ])
      done)

(* The heap reaches the disk but the directory does not: every record the
   replay writes again leaves its first copy without a directory entry.
   The WAL still holds the Puts, so the open sweeps and reclaims them. *)
let orphans_swept_after_heap_first_crash () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  fill db 50;
  Ode_storage.Heap.flush db.Ode.Types.kv_heap;
  Db.crash db;
  let db2, swept = stat "orphans_reclaimed" (fun () -> Db.open_ dir) in
  (* one record per object *)
  Tutil.check_bool "orphans reclaimed" true (swept >= 50);
  (match Ode.Verify.run db2 with Ok () -> () | Error ps -> Alcotest.fail (String.concat "; " ps));
  Tutil.check_int "all rows" 50 (Db.with_txn db2 (fun _ -> Ode.Query.count db2 ~var:"x" ~cls:"acct" ()));
  Db.close db2

(* Orphans on many heap pages: 400 records of some 220 bytes fill over 20
   heap pages, all flushed before the directory. The sweep reclaims each
   first copy, whatever page it is on, and no live record: Verify finds
   no unreferenced heap record and every row reads back. *)
let orphans_swept_across_pages () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  fill db 400;
  Ode_storage.Heap.flush db.Ode.Types.kv_heap;
  let pages = Ode_storage.Heap.page_count db.Ode.Types.kv_heap in
  if pages <= 20 then Alcotest.failf "400 records on %d heap pages" pages;
  Db.crash db;
  let db2, swept = stat "orphans_reclaimed" (fun () -> Db.open_ dir) in
  Tutil.check_int "orphans reclaimed" 400 swept;
  (match Ode.Verify.run db2 with Ok () -> () | Error ps -> Alcotest.fail (String.concat "; " ps));
  Tutil.check_int "all rows" 400 (Db.with_txn db2 (fun _ -> Ode.Query.count db2 ~var:"x" ~cls:"acct" ()));
  Db.close db2

(* The orphan sweep's directory pass reads each rid where it lies in the
   cursor's copy of its leaf: over 2,000 out-of-line records it allocates
   a fixed few words (the cursor and its buffer), none per entry. *)
let rid_pass_allocates_nothing_per_entry () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  fill db 2000;
  let entries = ref 0 in
  Ode.Kv.iter_rids db (fun _ _ -> incr entries);
  Tutil.check_int "out-of-line entries" 2000 !entries;
  let f _ _ = () in
  let words = Tutil.allocated_words (fun () -> Ode.Kv.iter_rids db f) in
  if words > 256. then Alcotest.failf "the rid pass over %d entries allocated %.0f words" !entries words;
  Db.close db

(* After a clean close the WAL is empty, so the open runs no orphan sweep.
   With a pool that holds the whole heap, the heap's attach scan misses
   once per page and the sweep would hit every page again; what the open
   does hit is a few directory and record pages of the catalog and meta. *)
let clean_open_skips_sweep () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup dir in
  fill db 1000;
  Db.close db;
  let db2, hits = stat "pool_hits" (fun () -> Db.open_ ~pool_pages:4096 dir) in
  let heap_pages = Ode_storage.Heap.page_count db2.Ode.Types.kv_heap in
  Tutil.check_bool "heap is large" true (heap_pages > 50);
  if hits >= 20 then Alcotest.failf "clean open hit %d pool pages (heap has %d)" hits heap_pages;
  Db.close db2

(* -- crashes leak no pages ------------------------------------------------------ *)

let setup_indexed dir =
  let db = Db.open_ dir in
  ignore (Db.define db "class rec { id: int; body: string; };");
  Db.create_cluster db "rec";
  Db.create_index db ~cls:"rec" ~field:"id";
  db

(* [runs] transactions of [per] objects each, ids ascending from [from],
   bodies of seeded random length. *)
let insert_runs db rng ~from ~runs ~per =
  for r = 0 to runs - 1 do
    Db.with_txn db (fun txn ->
        for i = 0 to per - 1 do
          let body = String.make (50 + Random.State.int rng 250) 'b' in
          ignore (Db.pnew txn "rec" [ ("id", int (from + (r * per) + i)); ("body", Value.Str body) ])
        done)
  done

let store_files = [ "directory.bpt"; "indexes.bpt"; "objects.heap" ]

let page_counts dir =
  List.map
    (fun f -> (f, (Unix.stat (Filename.concat dir f)).Unix.st_size / Ode_storage.Page.size))
    store_files

(* Insert runs since the last checkpoint, a crash and a reopen: replay
   rebuilds the nodes the crash lost on the pages they had, so every tree
   page is reachable from its root and the store verifies. *)
let crash_leaves_every_page_reachable () =
  let dir = Tutil.temp_dir "rec" in
  let db = setup_indexed dir in
  Db.checkpoint db;
  insert_runs db (Random.State.make [| 7 |]) ~from:0 ~runs:6 ~per:150;
  Db.crash db;
  let db2 = Db.open_ dir in
  (match Ode.Verify.run db2 with Ok () -> () | Error ps -> Alcotest.fail (String.concat "; " ps));
  Db.close db2

(* Cycles of sorted insert runs, each ended by a crash and a reopen, leave
   every file as many pages long as the same inserts ended by clean
   closes: a crash leaks no page. *)
let crash_grows_no_file () =
  let run ~crash =
    let dir = Tutil.temp_dir "rec" in
    let db = ref (setup_indexed dir) in
    let rng = Random.State.make [| 24 |] in
    for cycle = 0 to 3 do
      insert_runs !db rng ~from:(cycle * 500) ~runs:5 ~per:100;
      if crash then Db.crash !db else Db.close !db;
      db := Db.open_ dir
    done;
    Db.close !db;
    page_counts dir
  in
  let clean = run ~crash:false in
  Alcotest.(check (list (pair string int))) "pages after crashes = pages after clean closes" clean
    (run ~crash:true)

(* -- records that cross the inline limit, under crashes ---------------------------- *)

(* Seeded crash cycles over objects whose records move between their
   directory leaf and the heap. Bodies are drawn small, around
   [Kv.inline_max] (within 16 bytes either side) and past a page, and an
   update mostly draws from the other side of the limit, so records move
   heap to leaf and leaf to heap. Each round arms one of [heap.flush],
   [pool.flush] and [disk.write], commits under explicit and automatic
   checkpoints until the fault fires (or the round ends in a power loss),
   then crashes and reopens. After each reopen the objects equal the
   committed model (with or without the transaction in doubt), the store
   verifies, and the heap holds exactly the records the directory
   reaches. Reproduce with CROSSING_SEED=<seed> CROSSING_ITERS=<n>. *)

module Failpoint = Ode_util.Failpoint
module IM = Map.Make (Int)

let env_int name default = match Sys.getenv_opt name with Some s -> int_of_string s | None -> default
let cross_sites = [| "heap.flush"; "pool.flush"; "disk.write" |]

type cross_op = Ins of int * string | Upd of int * string | Del of int

let apply_ops model ops =
  List.fold_left
    (fun m -> function Ins (t, b) | Upd (t, b) -> IM.add t b m | Del t -> IM.remove t m)
    model ops

(* tag -> (oid, body) of every live object. *)
let cross_objects db =
  Db.with_txn db (fun txn ->
      List.fold_left
        (fun m oid ->
          match (Db.get_field txn oid "tag", Db.get_field txn oid "body") with
          | Value.Int t, Value.Str b -> IM.add t (oid, b) m
          | _ -> Alcotest.fail "object without a tag and a body")
        IM.empty
        (Ode.Query.to_list db ~txn ~var:"x" ~cls:"cross" ()))

(* Whether the object's record is in its directory leaf. *)
let in_leaf db oid =
  match Ode_index.Bptree.find db.Ode.Types.kv_dir (Ode.Keys.header oid) with
  | Some v -> ( match Ode.Kv.decode_entry v with Ode.Kv.Inline _ -> true | Ode.Kv.At _ -> false)
  | None -> Alcotest.fail "object without a directory entry"

let check_reopened ~what db =
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "%s: %s" what (String.concat "; " ps));
  let reachable = ref 0 in
  Ode.Kv.iter_rids db (fun _ _ -> incr reachable);
  Tutil.check_int (what ^ ": no orphan heap record") !reachable
    (Ode_storage.Heap.record_count db.Ode.Types.kv_heap)

let crossing_records_survive_crashes () =
  let seed = env_int "CROSSING_SEED" 1 and iters = env_int "CROSSING_ITERS" 6 in
  let fired = Hashtbl.create 4 and to_heap = ref 0 and to_leaf = ref 0 in
  for iter = 0 to iters - 1 do
    let rng = Random.State.make [| seed; iter |] in
    let int n = Random.State.int rng n in
    let dir = Tutil.temp_dir "cross" in
    let open_db () = Db.open_ ~wal_checkpoint_bytes:(4096 + int 12_288) dir in
    let db = ref (open_db ()) in
    ignore (Db.define !db "class cross { tag: int; body: string; };");
    Db.create_cluster !db "cross";
    (* The record's bytes beside the body, to aim bodies at the limit. *)
    let overhead =
      let o = Db.with_txn !db (fun txn -> Db.pnew txn "cross" [ ("tag", Value.Int 0); ("body", Value.Str "") ]) in
      let n = String.length (Option.get (Ode.Kv.get !db (Ode.Keys.header o))) in
      Db.with_txn !db (fun txn -> Db.pdelete txn o);
      n
    in
    Db.checkpoint !db;
    let around () = max 0 (Ode.Kv.inline_max - overhead - 16 + int 33) in
    let small () = int 40 and past_page () = Ode_storage.Page.size + int 2000 in
    let gen = ref 0 in
    let body tag len =
      incr gen;
      String.init len (fun i -> Char.chr (97 + ((tag + !gen + i) mod 26)))
    in
    let next_tag = ref 1 and model = ref IM.empty in
    for round = 0 to 1 do
      let site = cross_sites.(((2 * iter) + round) mod Array.length cross_sites) in
      let bound = match site with "heap.flush" -> 3 | "pool.flush" -> 8 | _ -> 30 in
      let action =
        match (site, int 3) with
        | "disk.write", 1 -> Failpoint.Short_effect (Random.State.float rng 1.0)
        | "disk.write", 2 -> Failpoint.Flip_bit (int (4096 * 8))
        | _ -> Failpoint.Crash_site
      in
      let objs = ref (cross_objects !db) in
      let in_doubt = ref [] in
      Failpoint.arm site ~policy:(Failpoint.After_hits (int bound)) ~action;
      (try
         for _ = 1 to 24 do
           if int 4 = 0 then Db.checkpoint !db;
           let used = Hashtbl.create 4 in
           let ops =
             List.filter_map
               (fun _ ->
                 let live = IM.bindings !model |> List.filter (fun (t, _) -> not (Hashtbl.mem used t)) in
                 match (live, int 4) with
                 | [], _ | _, 0 ->
                     let t = !next_tag in
                     incr next_tag;
                     Hashtbl.replace used t ();
                     Some (Ins (t, body t (match int 3 with 0 -> small () | 1 -> around () | _ -> past_page ())))
                 | live, k ->
                     let t, b = List.nth live (int (List.length live)) in
                     Hashtbl.replace used t ();
                     if k = 1 && int 3 = 0 then Some (Del t)
                     else
                       (* Mostly to the other side of the limit. *)
                       let was_small = overhead + String.length b <= Ode.Kv.inline_max in
                       let len =
                         match (was_small, int 4) with
                         | _, 0 -> around ()
                         | true, 1 -> past_page ()
                         | true, _ -> Ode.Kv.inline_max - overhead + 1 + int 16
                         | false, _ -> max 0 (Ode.Kv.inline_max - overhead - int 16)
                       in
                       Some (Upd (t, body t len)))
               (List.init (1 + int 3) Fun.id)
           in
           in_doubt := ops;
           Db.with_txn !db (fun txn ->
               List.iter
                 (function
                   | Ins (t, b) ->
                       let o = Db.pnew txn "cross" [ ("tag", Value.Int t); ("body", Value.Str b) ] in
                       objs := IM.add t (o, b) !objs
                   | Upd (t, b) -> Db.set_field txn (fst (IM.find t !objs)) "body" (Value.Str b)
                   | Del t -> Db.pdelete txn (fst (IM.find t !objs)))
                 ops);
           model := apply_ops !model ops;
           in_doubt := [];
           List.iter
             (function
               | Upd (t, b) ->
                   let o, old = IM.find t !objs in
                   let was = overhead + String.length old <= Ode.Kv.inline_max in
                   (match (was, in_leaf !db o) with
                   | true, false -> incr to_heap
                   | false, true -> incr to_leaf
                   | _ -> ());
                   objs := IM.add t (o, b) !objs
               | Ins _ | Del _ -> ())
             ops
         done
       with Failpoint.Crash s -> Hashtbl.replace fired s ());
      Failpoint.clear ();
      Db.crash !db;
      db := open_db ();
      let what = Printf.sprintf "seed %d, iteration %d, round %d (%s)" seed iter round site in
      let actual = IM.map snd (cross_objects !db) in
      let after = apply_ops !model !in_doubt in
      if IM.equal String.equal actual !model then ()
      else if !in_doubt <> [] && IM.equal String.equal actual after then model := after
      else Alcotest.failf "%s: recovered objects differ from the committed model" what;
      check_reopened ~what !db
    done;
    Db.close !db
  done;
  if iters >= 4 then begin
    Array.iter
      (fun site ->
        if not (Hashtbl.mem fired site) then Alcotest.failf "no crash landed at %s" site)
      cross_sites;
    if !to_heap = 0 || !to_leaf = 0 then
      Alcotest.failf "records moved %d times to the heap and %d times to a leaf" !to_heap !to_leaf
  end

let suite =
  [
    ( "recovery",
      [
        Alcotest.test_case "orphans swept after a heap-first crash" `Quick
          orphans_swept_after_heap_first_crash;
        Alcotest.test_case "orphans swept across heap pages" `Quick orphans_swept_across_pages;
        Alcotest.test_case "clean open skips the orphan sweep" `Quick clean_open_skips_sweep;
        Alcotest.test_case "rid pass allocates nothing per entry" `Quick rid_pass_allocates_nothing_per_entry;
        Alcotest.test_case "clean close round-trip" `Quick survives_clean_close;
        Alcotest.test_case "crash without close" `Quick survives_crash_without_close;
        Alcotest.test_case "uncommitted work is lost" `Quick uncommitted_work_is_lost;
        Alcotest.test_case "all state kinds recover" `Quick recovery_covers_everything;
        Alcotest.test_case "oid counters recover" `Quick oid_counters_recover;
        Alcotest.test_case "checkpoint bounds the wal" `Quick checkpoint_bounds_wal;
        Alcotest.test_case "repeated crashes are idempotent" `Quick repeated_crashes;
        Alcotest.test_case "chunked objects survive" `Quick big_objects_survive;
        Alcotest.test_case "a crash leaves every tree page reachable" `Quick
          crash_leaves_every_page_reachable;
        Alcotest.test_case "a crash grows no file" `Quick crash_grows_no_file;
      ] );
    ( "recovery.cross",
      [ Alcotest.test_case "records crossing the inline limit" `Quick crossing_records_survive_crashes ] );
  ]
