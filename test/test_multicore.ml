(* Multicore safety: the domain-shared primitives (bounded channel, RW
   lock, lock-striped buffer pool) under real parallel load, plus a seeded
   stress test running reader domains against a writing domain over one
   embedded database with the same RW-lock discipline the server uses.
   Oracles: no torn observations, every object reads the same after a
   reopen, and the structural integrity checker is clean afterwards
   (including after reopen). *)

module Chan = Ode_util.Chan
module Rwlock = Ode_util.Rwlock
module Disk = Ode_storage.Disk
module Pool = Ode_storage.Buffer_pool
module Page = Ode_storage.Page
module Db = Ode.Database
module Value = Ode_model.Value

(* -- bounded channel ---------------------------------------------------- *)

let chan_basics () =
  let c = Chan.create 2 in
  Tutil.check_int "capacity" 2 (Chan.capacity c);
  Tutil.check_bool "push 1" true (Chan.try_push c 1);
  Tutil.check_bool "push 2" true (Chan.try_push c 2);
  Tutil.check_bool "full refuses" false (Chan.try_push c 3);
  Tutil.check_int "length" 2 (Chan.length c);
  Tutil.check_int "fifo 1" 1 (Chan.pop c);
  Tutil.check_int "fifo 2" 2 (Chan.pop c);
  Tutil.check_bool "empty" true (Chan.try_pop c = None);
  Tutil.check_int "cap clamped to 1" 1 (Chan.capacity (Chan.create 0))

(* Two producer domains block-push 1000 values each through a 4-slot
   channel; the consumer (this domain) pops all 2000. Nothing is lost,
   nothing duplicated, and every push eventually unblocks. *)
let chan_cross_domain () =
  let per = 1000 in
  let c = Chan.create 4 in
  let producer base =
    Domain.spawn (fun () ->
        for i = 1 to per do
          Chan.push c (base + i)
        done)
  in
  let ds = [ producer 0; producer 10_000 ] in
  let sum = ref 0 and count = ref 0 in
  for _ = 1 to 2 * per do
    sum := !sum + Chan.pop c;
    incr count
  done;
  List.iter Domain.join ds;
  Tutil.check_int "received all" (2 * per) !count;
  Tutil.check_int "sum of both ranges" (per * (per + 1) + (10_000 * per)) !sum;
  Tutil.check_int "drained" 0 (Chan.length c)

(* -- RW lock ------------------------------------------------------------ *)

(* Writers keep a two-cell invariant (x = y) under the exclusive lock with
   a deliberate window between the stores; readers under the shared lock
   must never observe the window. *)
let rwlock_excludes_writers () =
  let l = Rwlock.create () in
  let x = ref 0 and y = ref 0 in
  let torn = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to 400 do
          Rwlock.write l (fun () ->
              incr x;
              Domain.cpu_relax ();
              incr y)
        done)
  in
  let reader seed =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| seed |] in
        for _ = 1 to 2000 do
          Rwlock.read l (fun () ->
              let a = !x in
              if Random.State.bool rng then Domain.cpu_relax ();
              if a <> !y then Atomic.incr torn)
        done)
  in
  let ds = [ writer; reader 7; reader 8 ] in
  List.iter Domain.join ds;
  Tutil.check_int "writer ran" 400 !x;
  Tutil.check_int "invariant held" 400 !y;
  Tutil.check_int "no torn reads" 0 (Atomic.get torn)

(* -- lock-striped buffer pool ------------------------------------------- *)

(* 150 pages through a 64-frame striped pool: the seeded readers force
   constant eviction and reload across stripes while checking every byte
   pattern they pin. *)
let pool_striped_parallel () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:64 d in
  Tutil.check_bool "striped" true (Pool.stripes p > 1);
  let pages = 150 in
  for _ = 1 to pages do
    let f = Pool.allocate p in
    let b = Pool.data f in
    Bytes.fill b 0 (Bytes.length b) (Char.chr (Pool.page_no f land 0xff));
    Pool.mark_dirty p f;
    Pool.unpin p f
  done;
  Pool.flush_all p;
  let bad = Atomic.make 0 in
  let worker seed =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| seed |] in
        for _ = 1 to 3000 do
          let n = Random.State.int rng pages in
          Pool.with_page p n (fun f ->
              let b = Pool.data f in
              let expect = Char.chr (n land 0xff) in
              if Bytes.get b 0 <> expect || Bytes.get b (Page.size - 1) <> expect then
                Atomic.incr bad)
        done)
  in
  let ds = List.map worker [ 11; 22; 33; 44 ] in
  List.iter Domain.join ds;
  Tutil.check_int "no corrupted page reads" 0 (Atomic.get bad);
  Pool.flush_all p;
  (* The disk image is intact after all that churn. *)
  for n = 0 to pages - 1 do
    let b = Disk.read d n in
    if Bytes.get b 0 <> Char.chr (n land 0xff) then
      Alcotest.failf "page %d corrupted on disk" n
  done

(* -- detached read-only transactions refuse writes ----------------------- *)

(* The guard the server's reroute path relies on: a write attempt inside a
   detached read transaction raises before any shared state is touched, so
   the request can be replayed on the writer domain. *)
let read_txn_rejects_writes () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class cell { a: int; b: int; };");
  Db.create_cluster db "cell";
  let oid =
    Db.with_txn db (fun txn -> Db.pnew txn "cell" [ ("a", Value.Int 1); ("b", Value.Int 1) ])
  in
  (match Db.with_read_txn db (fun txn -> Db.pnew txn "cell" []) with
  | _ -> Alcotest.fail "pnew in a read txn must raise"
  | exception Ode.Types.Read_only_txn -> ());
  (match Db.with_read_txn db (fun txn -> Db.set_field txn oid "a" (Value.Int 9)) with
  | _ -> Alcotest.fail "set_field in a read txn must raise"
  | exception Ode.Types.Read_only_txn -> ());
  (match Db.with_read_txn db (fun txn -> Db.pdelete txn oid) with
  | _ -> Alcotest.fail "pdelete in a read txn must raise"
  | exception Ode.Types.Read_only_txn -> ());
  (* Nothing leaked: the population and the field are untouched, and the
     engine's single transaction slot is still free. *)
  Tutil.check_int "population untouched" 1 (Ode.Query.count db ~var:"x" ~cls:"cell" ());
  Db.with_txn db (fun txn ->
      Tutil.check_value "field untouched" (Value.Int 1) (Db.get_field txn oid "a"));
  Db.close db

(* -- seeded reader-domains vs writer stress over one database ----------- *)

(* The server's discipline in miniature: 3 reader domains run detached
   read-only transactions under the shared lock while this domain updates
   overlapping objects under the exclusive lock, every object keeping
   a = b inside each committed transaction. Readers must never see a
   half-applied update; afterwards every object must read the same after a
   reopen and Verify must pass, before and after it. *)
let stress_readers_vs_writer () =
  let dir = Tutil.temp_dir "ode-mc" in
  let db = Db.open_ dir in
  ignore (Db.define db "class cell { a: int; b: int; };");
  Db.create_cluster db "cell";
  let nobjs = 32 in
  let oids =
    Array.init nobjs (fun i ->
        Db.with_txn db (fun txn -> Db.pnew txn "cell" [ ("a", Value.Int i); ("b", Value.Int i) ]))
  in
  let lock = Rwlock.create () in
  let torn = Atomic.make 0 in
  let reads = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader seed =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| seed |] in
        while not (Atomic.get stop) do
          let oid = oids.(Random.State.int rng nobjs) in
          Rwlock.read lock (fun () ->
              Db.with_read_txn db (fun txn ->
                  match Db.get txn oid with
                  | None -> () (* deleted and replaced under the write lock *)
                  | Some fields -> (
                      Atomic.incr reads;
                      match (List.assoc "a" fields, List.assoc "b" fields) with
                      | Value.Int a, Value.Int b when a = b -> ()
                      | _ -> Atomic.incr torn)))
        done)
  in
  let ds = List.map reader [ 1; 2; 3 ] in
  let rng = Random.State.make [| 42 |] in
  for i = 1 to 400 do
    let slot = Random.State.int rng nobjs in
    Rwlock.write lock (fun () ->
        if i mod 16 = 0 then
          (* Churn identity too: delete one object, mint a replacement. *)
          Db.with_txn db (fun txn ->
              Db.pdelete txn oids.(slot);
              oids.(slot) <-
                Db.pnew txn "cell" [ ("a", Value.Int i); ("b", Value.Int i) ])
        else
          Db.with_txn db (fun txn ->
              Db.update txn oids.(slot) [ ("a", Value.Int i); ("b", Value.Int i) ]))
  done;
  Atomic.set stop true;
  List.iter Domain.join ds;
  Tutil.check_int "no torn reads" 0 (Atomic.get torn);
  Tutil.check_bool "readers made progress" true (Atomic.get reads > 0);
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
    ( "multicore",
      [
        Alcotest.test_case "chan: bounded fifo semantics" `Quick chan_basics;
        Alcotest.test_case "chan: producers block and drain across domains" `Quick
          chan_cross_domain;
        Alcotest.test_case "rwlock: readers never see writer windows" `Quick
          rwlock_excludes_writers;
        Alcotest.test_case "read txn rejects writes before shared state" `Quick
          read_txn_rejects_writes;
        Alcotest.test_case "buffer pool: striped pins under eviction" `Quick
          pool_striped_parallel;
        Alcotest.test_case "stress: reader domains vs writer, seeded" `Quick
          stress_readers_vs_writer;
      ] );
  ]
