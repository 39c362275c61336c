(* The derived experiment suite (see EXPERIMENTS.md): one experiment per
   performance-relevant claim of the ODE paper. Each prints a table of
   measured results plus the engine-work counters that explain them. *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value
module Parser = Ode_lang.Parser
module Prng = Ode_util.Prng
module Stats = Ode_util.Stats
module S = Ode.Odeset
open Report

let mem_db () = Db.open_in_memory ()

let disk_db prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ode-bench-%s-%d-%f" prefix (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  Db.open_ dir

let pred fmt = Printf.ksprintf Parser.expr fmt

(* ------------------------------------------------------------------ E1 *)
(* §2.4: persistent objects are manipulated "in much the same way as
   volatile objects" — what does that cost? Volatile OCaml records vs the
   persistent store (memory and disk backends). *)

type vol_item = { mutable v_qty : int; v_name : string }

let e1 () =
  section "E1  persistence vs volatile objects (paper §2.4)";
  let rows = ref [] in
  List.iter
    (fun n ->
      (* volatile baseline *)
      let rng = Prng.create 1 in
      let arr = Array.make n None in
      let _, m_vcreate =
        timed (fun () ->
            for i = 0 to n - 1 do
              arr.(i) <- Some { v_qty = Prng.int rng 100; v_name = Printf.sprintf "i%d" i }
            done)
      in
      let _, m_vupdate =
        timed (fun () ->
            Array.iter (function Some it -> it.v_qty <- it.v_qty + 1 | None -> ()) arr)
      in
      (* persistent, both backends *)
      let bench db =
        ignore (Db.define db "class it { name: string; qty: int; };");
        Db.create_cluster db "it";
        let rng = Prng.create 1 in
        let oids = Array.make n None in
        let _, m_create =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  for i = 0 to n - 1 do
                    oids.(i) <-
                      Some
                        (Db.pnew txn "it"
                           [ ("name", Str (Printf.sprintf "i%d" i)); ("qty", Int (Prng.int rng 100)) ])
                  done))
        in
        let _, m_read =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  Array.iter
                    (function Some o -> ignore (Db.get_field txn o "qty") | None -> ())
                    oids))
        in
        let _, m_update =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  Array.iter
                    (function
                      | Some o ->
                          let q = match Db.get_field txn o "qty" with Value.Int q -> q | _ -> 0 in
                          Db.set_field txn o "qty" (Value.Int (q + 1))
                      | None -> ())
                    oids))
        in
        Db.close db;
        (m_create, m_read, m_update)
      in
      let mc_m, mr_m, mu_m = bench (mem_db ()) in
      let mc_d, mr_d, mu_d = bench (disk_db "e1") in
      rows :=
        [
          [ Printf.sprintf "%d volatile" n; fops (ops_per_sec m_vcreate n); "-"; fops (ops_per_sec m_vupdate n) ];
          [ Printf.sprintf "%d persistent/mem" n; fops (ops_per_sec mc_m n); fops (ops_per_sec mr_m n); fops (ops_per_sec mu_m n) ];
          [ Printf.sprintf "%d persistent/disk" n; fops (ops_per_sec mc_d n); fops (ops_per_sec mr_d n); fops (ops_per_sec mu_d n) ];
        ]
        @ !rows)
    [ 1_000; 10_000 ];
  table ~title:"E1: object create/read/update throughput"
    ~header:[ "workload"; "create"; "read"; "update" ]
    (List.rev !rows);
  note "volatile objects are orders of magnitude faster, as expected; the point";
  note "is that persistent code is *shape-identical* and survives restarts."

(* ------------------------------------------------------------------ E2 *)
(* §3: iteration as "an alternative to using object ids to navigate". *)

let e2 () =
  section "E2  pointer navigation vs cluster iteration (paper §3, CODASYL criticism)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let db = mem_db () in
      Workload.define_inventory db;
      let suppliers = 20 in
      let _, sups = Workload.load_inventory db ~items:n ~suppliers;
      in
      let target_sid = 7 in
      let target = sups.(target_sid) in
      (* (a) navigation: chase the supplier's set of refs *)
      let count_nav = ref 0 in
      let _, m_nav =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                match Db.get_field txn target "items" with
                | Value.VSet refs ->
                    List.iter
                      (fun v ->
                        match v with
                        | Value.Ref o ->
                            if Db.get_field txn o "qty" <> Value.Null then incr count_nav
                        | _ -> ())
                      refs
                | _ -> ()))
      in
      (* (b) cluster scan with suchthat *)
      let count_scan = ref 0 in
      let _, m_scan =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                Query.run db ~txn ~var:"x" ~cls:"stockitem"
                  ~suchthat:(pred "x.supid == %d" target_sid) (fun _ -> incr count_scan)))
      in
      (* (c) index probe *)
      (try Db.create_index db ~cls:"stockitem" ~field:"supid" with _ -> ());
      let count_idx = ref 0 in
      let _, m_idx =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                Query.run db ~txn ~var:"x" ~cls:"stockitem"
                  ~suchthat:(pred "x.supid == %d" target_sid) (fun _ -> incr count_idx)))
      in
      assert (!count_nav = !count_scan && !count_scan = !count_idx);
      rows :=
        [
          Printf.sprintf "%d items, 1/%d" n suppliers;
          fsec m_nav.seconds;
          fsec m_scan.seconds;
          fsec m_idx.seconds;
          fint (Stats.get m_scan.stats "objects_scanned");
          fint (Stats.get m_idx.stats "objects_scanned");
        ]
        :: !rows;
      Db.close db)
    [ 2_000; 10_000; 30_000 ];
  table
    ~title:"E2: fetch one supplier's items (navigation vs scan vs index)"
    ~header:[ "workload"; "navigate"; "scan"; "index"; "scanned(scan)"; "scanned(idx)" ]
    (List.rev !rows);
  note "navigation wins when you already hold the refs; the iterator with an";
  note "index matches it without any application-held pointers — the paper's";
  note "answer to the pointer-chasing criticism."

(* ------------------------------------------------------------------ E3 *)
(* §3.1: suchthat/by "can be used to advantage in query optimization". *)

let e3 () =
  section "E3  suchthat selectivity sweep: full scan vs index (paper §3.1)";
  let n = 30_000 in
  let db = mem_db () in
  ignore (Db.define db "class row { k: int; pad: string; };");
  Db.create_cluster db "row";
  let rng = Prng.create 5 in
  Db.with_txn db (fun txn ->
      for _ = 1 to n do
        ignore (Db.pnew txn "row" [ ("k", Int (Prng.int rng 1_000_000)); ("pad", Str "xxxxxxxx") ])
      done);
  let run_query () =
    List.map
      (fun sel ->
        let hi = int_of_float (1e6 *. sel) in
        let q = pred "x.k < %d" hi in
        let count = ref 0 in
        let _, m =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  Query.run db ~txn ~var:"x" ~cls:"row" ~suchthat:q (fun _ -> incr count)))
        in
        (sel, !count, m))
      [ 0.0001; 0.001; 0.01; 0.1; 0.5 ]
  in
  let scans = run_query () in
  Db.create_index db ~cls:"row" ~field:"k";
  let probes = run_query () in
  let rows =
    List.map2
      (fun (sel, c1, ms) (_, c2, mi) ->
        assert (c1 = c2);
        [
          Printf.sprintf "%.4f" sel;
          fint c1;
          fsec ms.seconds;
          fsec mi.seconds;
          ffloat (ms.seconds /. (mi.seconds +. 1e-9));
          fint (Stats.get mi.stats "objects_scanned");
        ])
      scans probes
  in
  Db.close db;
  table
    ~title:(Printf.sprintf "E3: selectivity sweep over %d rows" n)
    ~header:[ "selectivity"; "rows out"; "full scan"; "index"; "speedup"; "idx scanned" ]
    rows;
  note "the index wins by orders of magnitude at low selectivity and the";
  note "advantage shrinks as the range covers more of the cluster."

(* ------------------------------------------------------------------ E4 *)
(* §3.1.1: iterating over cluster hierarchies. *)

let e4 () =
  section "E4  cluster-hierarchy iteration (paper §3.1.1)";
  let per_class = 10_000 in
  let db = mem_db () in
  Workload.define_university db;
  Workload.load_university db ~per_class;
  let count ?deep ?suchthat cls =
    let c = ref 0 in
    let _, m =
      timed (fun () ->
          Db.with_txn db (fun txn ->
              Query.run db ~txn ~var:"x" ~cls ?deep ?suchthat (fun _ -> incr c)))
    in
    (!c, m)
  in
  let c1, m1 = count "person" in
  let c2, m2 = count ~deep:true "person" in
  let c3, m3 = count ~deep:true ~suchthat:(Parser.expr "x is faculty") "person" in
  let c4, m4 = count "faculty" in
  Db.close db;
  table
    ~title:(Printf.sprintf "E4: extents with %d objects per class" per_class)
    ~header:[ "query"; "rows"; "time"; "objects scanned" ]
    [
      [ "forall p in person (shallow)"; fint c1; fsec m1.seconds; fint (Stats.get m1.stats "objects_scanned") ];
      [ "forall p in person* (deep)"; fint c2; fsec m2.seconds; fint (Stats.get m2.stats "objects_scanned") ];
      [ "forall p in person* suchthat p is faculty"; fint c3; fsec m3.seconds; fint (Stats.get m3.stats "objects_scanned") ];
      [ "forall f in faculty (direct subcluster)"; fint c4; fsec m4.seconds; fint (Stats.get m4.stats "objects_scanned") ];
    ];
  note "deep extents cost the union of the subclusters; 'is'-filtering the";
  note "deep extent scans everything, while targeting the right subcluster";
  note "reads only what it returns — the paper's reason for making clusters";
  note "mirror the type hierarchy."

(* ------------------------------------------------------------------ E5 *)
(* §3.1: multiple loop variables = joins. *)

let e5 () =
  section "E5  multi-variable forall: nested-loop vs index-nested-loop join (paper §3.1)";
  let rows = ref [] in
  List.iter
    (fun (s, n) ->
      let db = mem_db () in
      Workload.define_inventory db;
      ignore (Workload.load_inventory db ~items:n ~suppliers:s);
      let join () =
        let c = ref 0 in
        let _, m =
          timed (fun () ->
              Db.with_txn db (fun _ ->
                  Query.join2 db ~outer:("s", "supplier") ~inner:("i", "stockitem")
                    ~suchthat:(Parser.expr "i.supid == s.sid") (fun _ _ -> incr c)))
        in
        (!c, m)
      in
      let c_nl, m_nl = join () in
      Db.create_index db ~cls:"stockitem" ~field:"supid";
      let c_inl, m_inl = join () in
      assert (c_nl = c_inl);
      rows :=
        [
          Printf.sprintf "%d sup x %d items" s n;
          fint c_nl;
          fsec m_nl.seconds;
          fsec m_inl.seconds;
          ffloat (m_nl.seconds /. (m_inl.seconds +. 1e-9));
        ]
        :: !rows;
      Db.close db)
    [ (10, 2_000); (20, 8_000); (40, 16_000) ];
  table ~title:"E5: equi-join supplier x stockitem"
    ~header:[ "workload"; "pairs"; "nested loop"; "index NL"; "speedup" ]
    (List.rev !rows);
  note "with the index, the inner forall becomes one probe per outer row:";
  note "the join cost drops from O(S*N) to O(S + pairs)."

(* ------------------------------------------------------------------ E6 *)
(* §3.2: fixpoint queries. *)

let e6 () =
  section "E6  fixpoint queries: worklist vs naive repeated scan (paper §3.2)";
  let rows = ref [] in
  List.iter
    (fun (fanout, depth) ->
      let db = mem_db () in
      Workload.define_parts db;
      let root = Workload.load_parts_tree db ~fanout ~depth in
      (* Pre-index edges by parent for both strategies. *)
      Db.create_index db ~cls:"uses" ~field:"parent";
      let children txn p =
        let acc = ref [] in
        Query.run db ~txn ~var:"u" ~cls:"uses"
          ~env:[ ("p", Value.Ref p) ]
          ~suchthat:(Parser.expr "u.parent == p")
          (fun u ->
            match Db.get_field txn u "child" with Value.Ref c -> acc := c :: !acc | _ -> ());
        !acc
      in
      (* worklist closure *)
      let size_wl = ref 0 in
      let _, m_wl =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                let w = S.worklist (S.of_list [ Value.Ref root ]) in
                S.iter_fix w (fun v ->
                    incr size_wl;
                    match v with
                    | Value.Ref p -> List.iter (fun c -> ignore (S.insert w (Value.Ref c))) (children txn p)
                    | _ -> ())))
      in
      (* naive: scan the frontier set repeatedly until no growth *)
      let size_naive = ref 0 in
      let _, m_naive =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                let closure = ref (S.of_list [ Value.Ref root ]) in
                let changed = ref true in
                while !changed do
                  changed := false;
                  S.iter
                    (fun v ->
                      match v with
                      | Value.Ref p ->
                          List.iter
                            (fun c ->
                              if not (S.mem (Value.Ref c) !closure) then begin
                                closure := S.add (Value.Ref c) !closure;
                                changed := true
                              end)
                            (children txn p)
                      | _ -> ())
                    !closure
                done;
                size_naive := S.cardinal !closure))
      in
      assert (!size_wl = !size_naive);
      rows :=
        [
          Printf.sprintf "fanout %d depth %d" fanout depth;
          fint !size_wl;
          fsec m_wl.seconds;
          fsec m_naive.seconds;
          ffloat (m_naive.seconds /. (m_wl.seconds +. 1e-9));
        ]
        :: !rows;
      Db.close db)
    [ (3, 5); (3, 6); (4, 5) ];
  table ~title:"E6: transitive closure (parts explosion)"
    ~header:[ "tree"; "parts"; "worklist"; "repeated scan"; "naive/worklist" ]
    (List.rev !rows);
  note "iteration-sees-inserts (the worklist) touches each edge once; the";
  note "naive fixpoint rescans the whole closure every round."

(* ------------------------------------------------------------------ E7 *)
(* §4: versioning costs. *)

let e7 () =
  section "E7  versioning: update/read cost vs version count (paper §4)";
  let rows = ref [] in
  let per_nv = ref [] in
  List.iter
    (fun versions ->
      let db = mem_db () in
      ignore (Db.define db "class doc { body: string; n: int; };");
      Db.create_cluster db "doc";
      let d = Db.with_txn db (fun txn -> Db.pnew txn "doc" [ ("body", Str "x") ]) in
      let _, m_build =
        timed (fun () ->
            for i = 1 to versions - 1 do
              Db.with_txn db (fun txn ->
                  ignore (Db.newversion txn d);
                  Db.set_field txn d "n" (Int i))
            done)
      in
      let reads = 2_000 in
      let _, m_cur =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                for _ = 1 to reads do
                  ignore (Db.get_field txn d "n")
                done))
      in
      let _, m_v0 =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                for _ = 1 to reads do
                  ignore (Db.get_version txn { oid = d; ver = 0 })
                done))
      in
      let _, m_walk =
        timed (fun () ->
            Db.with_txn db (fun txn ->
                let v = ref (Db.eval txn ~vars:[ ("d", Value.Ref d) ] (Parser.expr "vprev(d)")) in
                while !v <> Value.Null do
                  v := Db.eval txn ~vars:[ ("v", !v) ] (Parser.expr "vprev(v)")
                done))
      in
      if versions > 1 then
        per_nv := (versions, m_build.seconds /. float (versions - 1)) :: !per_nv;
      rows :=
        [
          fint versions;
          Printf.sprintf "%s" (fsec (m_build.seconds /. float (max 1 (versions - 1))));
          Printf.sprintf "%.1fµs" (per_op m_cur reads);
          Printf.sprintf "%.1fµs" (per_op m_v0 reads);
          fsec m_walk.seconds;
        ]
        :: !rows;
      Db.close db)
    [ 1; 4; 16; 64; 256 ];
  table ~title:"E7: per-object version chains"
    ~header:[ "versions"; "newversion cost"; "read current"; "read v0"; "full vprev walk" ]
    (List.rev !rows);
  note "current-version reads never walk the chain (cost grows only with the";
  note "header's version list); creation pays one copy; 'no pre-defined";
  note "limit' holds — 256 versions stay cheap.";
  (* Regression guard: newversion allocates the next id in O(1) off the
     newest-first version list, so its per-call cost may grow only with the
     header encode (linear in versions), never quadratically. *)
  match (List.assoc_opt 4 !per_nv, List.assoc_opt 256 !per_nv) with
  | Some c4, Some c256 when c4 > 0.0 ->
      guard "E7.newversion_cost_ratio_256_over_4" ~hi:12.0 (c256 /. c4)
  | _ -> ()

(* ------------------------------------------------------------------ E8 *)
(* §5: constraint checking and abort cost. *)

let e8 () =
  section "E8  constraints: update overhead and abort cost (paper §5)";
  let rows = ref [] in
  List.iter
    (fun k ->
      let db = mem_db () in
      let constraints =
        String.concat "\n"
          (List.init k (fun i -> Printf.sprintf "constraint c%d: v >= %d - 1000000;" i i))
      in
      ignore (Db.define db (Printf.sprintf "class obj { v: int; %s };" constraints));
      Db.create_cluster db "obj";
      let o = Db.with_txn db (fun txn -> Db.pnew txn "obj" [ ("v", Int 0) ]) in
      let updates = 3_000 in
      let _, m =
        timed (fun () ->
            for i = 1 to updates do
              Db.with_txn db (fun txn -> Db.set_field txn o "v" (Int i))
            done)
      in
      rows :=
        [ fint k; Printf.sprintf "%.1fµs" (per_op m updates); fint (Stats.get m.stats "constraints_checked") ]
        :: !rows;
      Db.close db)
    [ 0; 1; 2; 4; 8 ];
  table ~title:"E8a: commit cost vs constraints per class"
    ~header:[ "constraints"; "per-update txn"; "checks performed" ]
    (List.rev !rows);
  (* abort cost vs transaction size *)
  let db = mem_db () in
  ignore (Db.define db "class g { v: int; constraint pos: v >= 0; };");
  Db.create_cluster db "g";
  let rows2 =
    List.map
      (fun w ->
        let _, m =
          timed (fun () ->
              match
                Db.with_txn db (fun txn ->
                    for i = 1 to w do
                      ignore (Db.pnew txn "g" [ ("v", Int i) ])
                    done;
                    ignore (Db.pnew txn "g" [ ("v", Int (-1)) ]))
              with
              | () -> assert false
              | exception Ode.Types.Constraint_violation _ -> ())
        in
        let leftover = Db.with_txn db (fun _ -> Query.count db ~var:"x" ~cls:"g" ()) in
        assert (leftover = 0);
        [ fint w; fsec m.seconds; "0 rows leaked" ])
      [ 10; 100; 1_000 ]
  in
  Db.close db;
  table ~title:"E8b: abort+rollback cost vs writes in the violating txn"
    ~header:[ "writes before violation"; "abort time"; "integrity" ] rows2;
  note "deferred apply makes rollback O(1) in disk work: the write set is";
  note "simply dropped, exactly the paper's abort-and-roll-back semantics."

(* ------------------------------------------------------------------ E9 *)
(* §6: trigger evaluation cost. *)

let e9 () =
  section "E9  triggers: commit latency vs active triggers (paper §6)";
  let rows = ref [] in
  List.iter
    (fun m_triggers ->
      let db = mem_db () in
      Db.set_action_printer db ignore;
      ignore
        (Db.define db
           {|class it { qty: int; trigger watch(n: int): qty < n ==> { qty := qty; }; };|});
      Db.create_cluster db "it";
      (* one object per trigger; only object 0 is updated afterwards *)
      let oids =
        Db.with_txn db (fun txn ->
            List.init (max 1 m_triggers) (fun _ -> Db.pnew txn "it" [ ("qty", Int 100) ]))
      in
      Db.with_txn db (fun txn ->
          List.iter (fun o -> ignore (Db.activate txn o "watch" [ Value.Int 0 ])) (if m_triggers = 0 then [] else oids));
      let target = List.hd oids in
      let updates = 2_000 in
      let _, m_quiet =
        timed (fun () ->
            for i = 1 to updates do
              Db.with_txn db (fun txn -> Db.set_field txn target "qty" (Int (100 + i)))
            done)
      in
      (* now fire: perpetual would re-fire; watch is once-only, so measure
         one firing commit *)
      let _, m_fire =
        timed (fun () -> Db.with_txn db (fun txn -> Db.set_field txn target "qty" (Int (-1))))
      in
      rows :=
        [
          fint m_triggers;
          Printf.sprintf "%.1fµs" (per_op m_quiet updates);
          fsec m_fire.seconds;
          fint (Stats.get m_fire.stats "triggers_fired");
        ]
        :: !rows;
      Db.close db)
    [ 0; 10; 100; 1_000 ];
  table ~title:"E9: per-commit trigger evaluation (only touched objects are checked)"
    ~header:[ "active triggers"; "quiet commit"; "firing commit"; "fired" ]
    (List.rev !rows);
  note "commit cost is independent of the total number of activations in the";
  note "database: conditions are evaluated only for objects the transaction";
  note "touched (end-of-transaction semantics, weak coupling for actions)."

(* ----------------------------------------------------------------- E10 *)
(* Durability: commit batching and recovery time. *)

let e10 () =
  section "E10  durability: commit cost and recovery time";
  let rows = ref [] in
  List.iter
    (fun batch ->
      let db = disk_db "e10" in
      ignore (Db.define db "class r { v: int; };");
      Db.create_cluster db "r";
      let total = 2_000 in
      let _, m =
        timed (fun () ->
            let done_ = ref 0 in
            while !done_ < total do
              Db.with_txn db (fun txn ->
                  for _ = 1 to batch do
                    ignore (Db.pnew txn "r" [ ("v", Int !done_) ]);
                    incr done_
                  done)
            done)
      in
      rows :=
        [
          fint batch;
          fops (ops_per_sec m total);
          fint (Stats.get m.stats "wal_syncs");
          Printf.sprintf "%.1fµs" (per_op m total);
        ]
        :: !rows;
      Db.close db)
    [ 1; 10; 100; 1_000 ];
  table ~title:"E10a: insert throughput vs transaction batch size (on disk, fsync per commit)"
    ~header:[ "ops/txn"; "throughput"; "wal syncs"; "per op" ]
    (List.rev !rows);
  (* recovery time vs wal length *)
  let rows2 =
    List.map
      (fun txns ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ode-rec-%d-%d" (Unix.getpid ()) txns)
        in
        let db = Db.open_ ~wal_checkpoint_bytes:max_int dir in
        ignore (Db.define db "class r { v: int; };");
        Db.create_cluster db "r";
        for i = 1 to txns do
          Db.with_txn db (fun txn -> ignore (Db.pnew txn "r" [ ("v", Int i) ]))
        done;
        let wal_bytes = Ode.Txn.wal_bytes db in
        (* crash: reopen without close *)
        let _, m =
          timed (fun () ->
              let db2 = Db.open_ dir in
              let n = Db.with_txn db2 (fun _ -> Query.count db2 ~var:"x" ~cls:"r" ()) in
              assert (n = txns);
              Db.close db2)
        in
        Db.close db;
        [ fint txns; Printf.sprintf "%dkB" (wal_bytes / 1024); fsec m.seconds ])
      [ 100; 1_000; 5_000 ]
  in
  table ~title:"E10b: recovery (replay) time vs un-checkpointed WAL"
    ~header:[ "committed txns"; "wal size"; "reopen+verify" ] rows2;
  note "group commit amortizes the fsync; recovery replays the committed";
  note "tail linearly and is bounded by checkpointing."

(* ----------------------------------------------------------------- E11 *)
(* §2.6: set operations. *)

let e11 () =
  section "E11  set values: Odeset vs a naive list (paper §2.6)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let rng = Prng.create 3 in
      let elems = Array.init n (fun _ -> Value.Int (Prng.int rng (4 * n))) in
      let _, m_build =
        timed (fun () -> ignore (S.of_list (Array.to_list elems)))
      in
      let s = S.of_list (Array.to_list elems) in
      let probes = 2_000 in
      let _, m_mem =
        timed (fun () ->
            for i = 0 to probes - 1 do
              ignore (S.mem elems.(i mod n) s)
            done)
      in
      (* naive: list with exists *)
      let l = Array.to_list elems in
      let _, m_lmem =
        timed (fun () ->
            for i = 0 to probes - 1 do
              ignore (List.exists (Value.equal elems.(i mod n)) l)
            done)
      in
      rows :=
        [
          fint n;
          fsec m_build.seconds;
          Printf.sprintf "%.2fµs" (per_op m_mem probes);
          Printf.sprintf "%.2fµs" (per_op m_lmem probes);
        ]
        :: !rows)
    [ 100; 1_000; 10_000 ];
  table ~title:"E11: set build and membership"
    ~header:[ "elements"; "normalize"; "mem (set)"; "mem (raw list)" ]
    (List.rev !rows);
  note "normalized sets give order-independent equality (needed for value";
  note "semantics) at modest cost; membership is comparable at these sizes."

(* ----------------------------------------------------------------- E12 *)
(* Substrate ablation: the B+tree earning its keep. *)

let e12 () =
  section "E12  substrate ablation: B+tree vs linear structures";
  let module B = Ode_index.Bptree in
  let rows = ref [] in
  List.iter
    (fun n ->
      let t = B.attach (Ode_storage.Buffer_pool.create ~capacity:256 (Ode_storage.Disk.in_memory ())) in
      let rng = Prng.create 9 in
      let keys = Array.init n (fun i -> Ode_util.Key.of_int i) in
      Prng.shuffle rng keys;
      let _, m_ins =
        timed (fun () -> Array.iter (fun k -> B.insert t k "v") keys)
      in
      let probes = 5_000 in
      let _, m_find =
        timed (fun () ->
            for i = 0 to probes - 1 do
              ignore (B.find t keys.(i mod n))
            done)
      in
      (* association list baseline *)
      let assoc = Array.to_list (Array.map (fun k -> (k, "v")) keys) in
      let _, m_assoc =
        timed (fun () ->
            for i = 0 to min probes 500 - 1 do
              ignore (List.assoc_opt keys.(i mod n) assoc)
            done)
      in
      let range_n = ref 0 in
      let _, m_range =
        timed (fun () ->
            B.iter_range t ~lo:(Ode_util.Key.of_int (n / 2)) ~hi:(Ode_util.Key.of_int (n / 2 + 1000))
              (fun _ _ ->
                incr range_n;
                true))
      in
      rows :=
        [
          fint n;
          fops (ops_per_sec m_ins n);
          Printf.sprintf "%.2fµs" (per_op m_find probes);
          Printf.sprintf "%.2fµs" (per_op m_assoc (min probes 500));
          Printf.sprintf "%s (%d rows)" (fsec m_range.seconds) !range_n;
          fint (B.height t);
        ]
        :: !rows)
    [ 1_000; 10_000; 50_000 ];
  table ~title:"E12: B+tree insert/lookup/range vs association list"
    ~header:[ "keys"; "insert"; "find"; "assoc find"; "range 1000"; "height" ]
    (List.rev !rows);
  note "log-time probes and sorted range scans are what make E3/E5's index";
  note "plans win; a linear structure degrades with extent size."

(* ----------------------------------------------------------------- E13 *)
(* Ablation: [by x.f] streamed in index order vs materialize-and-sort. The
   paper's §3.1 footnote that suchthat/by "can be used to advantage in query
   optimization" covers ordering too. *)

let e13 () =
  section "E13  ablation: by-clause via index order vs sort (paper §3.1)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let db = mem_db () in
      ignore (Db.define db "class s { k: int; w: int; };");
      Db.create_cluster db "s";
      let rng = Prng.create 21 in
      Db.with_txn db (fun txn ->
          for _ = 1 to n do
            ignore (Db.pnew txn "s" [ ("k", Int (Prng.int rng 1_000_000)); ("w", Int 1) ])
          done);
      let by = (Parser.expr "x.k", Ode_lang.Ast.Asc) in
      let ordered () =
        let last = ref min_int and ok = ref true and c = ref 0 in
        let _, m =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  Query.run db ~txn ~var:"x" ~cls:"s" ~by (fun oid ->
                      incr c;
                      match Db.get_field txn oid "k" with
                      | Value.Int k ->
                          if k < !last then ok := false;
                          last := k
                      | _ -> ())))
        in
        assert (!ok && !c = n);
        m
      in
      let m_sort = ordered () in
      Db.create_index db ~cls:"s" ~field:"k";
      let m_idx = ordered () in
      rows :=
        [
          fint n;
          fsec m_sort.seconds;
          fsec m_idx.seconds;
          ffloat (m_sort.seconds /. (m_idx.seconds +. 1e-9));
        ]
        :: !rows;
      Db.close db)
    [ 5_000; 20_000 ];
  table ~title:"E13: forall ... by x.k asc over n rows"
    ~header:[ "rows"; "sort plan"; "index-order plan"; "speedup" ]
    (List.rev !rows);
  note "with an index on the by-field the engine streams in key order and";
  note "skips both the sort and the per-row key evaluation."

(* ----------------------------------------------------------------- E14 *)
(* Substrate ablation: linear hashing vs B+tree for the index role. *)

let e14 () =
  section "E14  ablation: linear-hash index vs B+tree";
  let module B = Ode_index.Bptree in
  let module H = Ode_index.Hash_index in
  let rows = ref [] in
  List.iter
    (fun n ->
      let bt = B.attach (Ode_storage.Buffer_pool.create ~capacity:512 (Ode_storage.Disk.in_memory ())) in
      let ht = H.attach (Ode_storage.Buffer_pool.create ~capacity:512 (Ode_storage.Disk.in_memory ())) in
      let keys = Array.init n (fun i -> Ode_util.Key.of_int i) in
      let rng = Prng.create 31 in
      Prng.shuffle rng keys;
      let _, m_bins = timed (fun () -> Array.iter (fun k -> B.insert bt k "v") keys) in
      let _, m_hins = timed (fun () -> Array.iter (fun k -> H.insert ht k "v") keys) in
      let probes = 10_000 in
      let _, m_bfind =
        timed (fun () ->
            for i = 0 to probes - 1 do
              ignore (B.find bt keys.(i mod n))
            done)
      in
      let _, m_hfind =
        timed (fun () ->
            for i = 0 to probes - 1 do
              ignore (H.find ht keys.(i mod n))
            done)
      in
      (* The structural trade-off: the B+tree can range-scan, the hash
         index cannot (it would have to visit everything). *)
      let hits = ref 0 in
      let _, m_brange =
        timed (fun () ->
            B.iter_range bt ~lo:(Ode_util.Key.of_int 0) ~hi:(Ode_util.Key.of_int 500) (fun _ _ ->
                incr hits;
                true))
      in
      rows :=
        [
          fint n;
          fops (ops_per_sec m_bins n);
          fops (ops_per_sec m_hins n);
          Printf.sprintf "%.2fµs" (per_op m_bfind probes);
          Printf.sprintf "%.2fµs" (per_op m_hfind probes);
          Printf.sprintf "%s (%d)" (fsec m_brange.seconds) !hits;
        ]
        :: !rows)
    [ 10_000; 50_000 ];
  table ~title:"E14: point-lookup substrates"
    ~header:[ "keys"; "bt insert"; "hash insert"; "bt find"; "hash find"; "bt range 500" ]
    (List.rev !rows);
  note "linear hashing wins on inserts (no splits of sorted nodes); the";
  note "B+tree's decoded-node cache makes its probes competitive, and only";
  note "it supports the range and ordered plans of E3/E5/E13 — which is why";
  note "the engine's secondary indexes are B+trees."

(* ------------------------------------------------------------------ E15 *)
(* Crash recovery: reopening after simulated process death replays the
   committed WAL tail. How does recovery time scale with the WAL size, and
   what does the auto-checkpoint threshold therefore buy? *)

let e15 () =
  section "E15  recovery time vs WAL size (crash + replay)";
  let rows = ref [] in
  List.iter
    (fun txns ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ode-bench-e15-%d-%d-%f" txns (Unix.getpid ()) (Unix.gettimeofday ()))
      in
      (* Keep the whole history in the WAL: no auto-checkpoint. *)
      let db = Db.open_ ~wal_checkpoint_bytes:max_int dir in
      ignore (Db.define db "class r { seq: int; payload: string; };");
      Db.create_cluster db "r";
      Db.create_index db ~cls:"r" ~field:"seq";
      let rng = Prng.create 15 in
      for i = 0 to txns - 1 do
        Db.with_txn db (fun txn ->
            ignore
              (Db.pnew txn "r"
                 [
                   ("seq", Value.Int i);
                   ("payload", Value.Str (String.init (20 + Prng.int rng 80) (fun _ -> 'x')));
                 ]))
      done;
      let wal_bytes = (Unix.stat (Filename.concat dir "wal.log")).Unix.st_size in
      Db.crash db;
      let db2, m_recover = timed (fun () -> Db.open_ dir) in
      let replayed = Stats.get m_recover.stats "recovery_replayed" in
      Db.close db2;
      rows :=
        [
          fint txns;
          Printf.sprintf "%dK" (wal_bytes / 1024);
          fsec m_recover.seconds;
          fint replayed;
          fops (ops_per_sec m_recover replayed);
        ]
        :: !rows)
    [ 100; 500; 2000; 5000 ];
  table ~title:"E15: crash recovery cost"
    ~header:[ "txns"; "wal"; "recovery"; "ops replayed"; "replay ops/s" ]
    (List.rev !rows);
  note "recovery is linear in the WAL tail: replay re-applies every";
  note "committed op since the last checkpoint, then flushes and resets the";
  note "log. The auto-checkpoint threshold (default 8MB) caps this tail, so";
  note "it directly bounds worst-case reopen time after a crash."

(* ------------------------------------------------------------------ E16 *)
(* Decoded-object cache (PR 2): a repeated non-sargable predicate scan pays
   an object-record fetch and decode per field access on every run when
   uncached; with the cache the second run is served from decoded
   entries. *)

let e16 () =
  section "E16  decoded-object cache: repeated-predicate scan (cold vs warm)";
  let n = scaled 20_000 in
  (* The load runs with a pool smaller than the data, like the other
     experiments' stores. *)
  let pool_pages = max 64 (scaled 512) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ode-bench-e16-%d-%f" (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  let db = Db.open_ ~pool_pages dir in
  ignore (Db.define db "class m { a: int; b: int; c: int; pad: string; };");
  Db.create_cluster db "m";
  let rng = Prng.create 16 in
  let pad = String.make 1_024 'x' in
  let made = ref 0 in
  while !made < n do
    let k = min 2_000 (n - !made) in
    Db.with_txn db (fun txn ->
        for _ = 1 to k do
          ignore
            (Db.pnew txn "m"
               [
                 ("a", Int (Prng.int rng 1_000));
                 ("b", Int (Prng.int rng 1_000));
                 ("c", Int (Prng.int rng 2_000));
                 ("pad", Str pad);
               ])
        done);
    made := !made + k
  done;
  Db.close db;
  (* Three fields keep the predicate non-sargable: every run walks the whole
     extent and decodes every candidate. *)
  let q = pred "x.a + x.b > x.c" in
  let run db () = Query.count db ~var:"x" ~cls:"m" ~suchthat:q () in
  (* Best-of-3 damps scheduler/OS-cache noise in the single-digit-ms runs. *)
  let best f =
    let runs =
      List.init 3 (fun _ ->
          (* settle outstanding major-GC work so a collection triggered by
             the previous variant's allocations doesn't land mid-run *)
          Gc.full_major ();
          snd (timed f))
    in
    List.fold_left (fun a b -> if b.seconds < a.seconds then b else a) (List.hd runs)
      (List.tl runs)
  in
  (* Both variants open with a pool that holds every page of the store, and
     the uncached one primes it with one run, so its measured runs read no
     page from disk: the comparison isolates per-access fetch/decode cost
     against cache hits, not disk or pool misses (guarded below). *)
  let pool_pages =
    Array.fold_left
      (fun acc f -> acc + ((Unix.stat (Filename.concat dir f)).Unix.st_size / Ode_storage.Page.size) + 1)
      0 (Sys.readdir dir)
  in
  let db0 = Db.open_ ~pool_pages ~object_cache:0 dir in
  let r0 = run db0 () in
  let m_uncached = best (fun () -> if run db0 () <> r0 then failwith "E16: count drift") in
  Db.close db0;
  let db1 = Db.open_ ~pool_pages ~object_cache:(4 * n) dir in
  let r1, m_cold = timed (run db1) in
  let m_warm = best (fun () -> if run db1 () <> r0 then failwith "E16: count drift") in
  Db.close db1;
  if r0 <> r1 then failwith "E16: count mismatch across variants";
  let cell m =
    [
      fsec m.seconds;
      fint (Stats.get m.stats "objects_fetched");
      Printf.sprintf "%d/%d" (Stats.get m.stats "obj_cache_hits")
        (Stats.get m.stats "obj_cache_misses");
      fint (Stats.get m.stats "pool_misses");
    ]
  in
  table
    ~title:(Printf.sprintf "E16: scan of %d objects, non-sargable 3-field predicate" n)
    ~header:[ "variant"; "time"; "fetched"; "ocache hit/miss"; "pool misses" ]
    [
      "uncached (pool warm)" :: cell m_uncached;
      "cached, cold" :: cell m_cold;
      "cached, warm" :: cell m_warm;
    ];
  let speedup = m_uncached.seconds /. max 1e-9 m_warm.seconds in
  guard "E16.uncached_pool_misses" ~hi:0.0 (float (Stats.get m_uncached.stats "pool_misses"));
  (* Fetch-and-decode from a warm pool against cache hits: 2.1-2.6 on a
     2-core x86-64 host at BENCH_SCALE 0.1 and 1. *)
  guard "E16.decode_speedup" ~lo:1.5 speedup;
  metric "E16.warm_fetched" (float (Stats.get m_warm.stats "objects_fetched"));
  note "warm runs decode nothing: every object access is an ocache hit,";
  note "so repeated predicate evaluation costs hash lookups, not codec work."

(* ------------------------------------------------------------------ E17 *)
(* Streaming cursors (PR 2): exists stops at the first match, so its cost —
   pages read and time — must not grow with extent size. A full count over
   the same extent shows what early exit saves. *)

let e17 () =
  section "E17  early-exit exists: cost vs extent size";
  let sizes = List.map scaled [ 5_000; 20_000; 80_000 ] in
  let iters = 200 in
  let rows = ref [] in
  let per = ref [] in
  List.iter
    (fun n ->
      let db = mem_db () in
      ignore (Db.define db "class e { k: int; pad: string; };");
      Db.create_cluster db "e";
      (* First-created object is the only match; it is also first in extent
         key order, so exists touches exactly one object. *)
      ignore (Db.with_txn db (fun txn -> Db.pnew txn "e" [ ("k", Int 42); ("pad", Str "") ]));
      let made = ref 1 in
      while !made < n do
        let k = min 2_000 (n - !made) in
        Db.with_txn db (fun txn ->
            for i = 1 to k do
              ignore (Db.pnew txn "e" [ ("k", Int (1_000 + !made + i)); ("pad", Str "") ])
            done);
        made := !made + k
      done;
      let q = pred "x.k == 42" in
      let _, m_exists =
        timed (fun () ->
            for _ = 1 to iters do
              if not (Query.exists db ~var:"x" ~cls:"e" ~suchthat:q ()) then
                failwith "E17: exists missed its match"
            done)
      in
      let _, m_count = timed (fun () -> ignore (Query.count db ~var:"x" ~cls:"e" ~suchthat:q ())) in
      per := (n, per_op m_exists iters) :: !per;
      rows :=
        [
          fint n;
          Printf.sprintf "%.1fµs" (per_op m_exists iters);
          ffloat (float (Stats.get m_exists.stats "cursor_pages_read") /. float iters);
          fsec m_count.seconds;
          fint (Stats.get m_count.stats "cursor_pages_read");
        ]
        :: !rows;
      Db.close db)
    sizes;
  table ~title:"E17: exists (early exit) vs full count of the same extent"
    ~header:[ "extent"; "exists/op"; "pages/op"; "full count"; "count pages" ]
    (List.rev !rows);
  (match (List.assoc_opt (List.nth sizes 0) !per, List.assoc_opt (List.nth sizes 2) !per) with
  | Some small, Some large when small > 0.0 ->
      guard "E17.exists_cost_ratio_largest_over_smallest" ~hi:5.0 (large /. small)
  | _ -> ());
  note "exists reads one leaf and scans one object no matter how large the";
  note "extent is; the full count's pages-read column grows linearly — the";
  note "cursor's early exit is the whole difference."

(* ------------------------------------------------------------------ E18 *)
(* Observability overhead (PR 3): the tracer and histograms are compiled in,
   so their *disabled* cost — a flag check per emit point — must be noise on
   a hot scan. The guard holds the disabled-default configuration to ≤5% of
   a build-out baseline with both subsystems off; the fully-traced variant is
   reported (spans allocate and timestamp) but not guarded. Side products:
   a sample Chrome trace and a histogram dump, uploaded as CI artifacts. *)

let e18 () =
  section "E18  tracing/histogram overhead on a hot scan (disabled vs on)";
  let module T = Ode_util.Trace in
  let module H = Ode_util.Histogram in
  let n = scaled 20_000 in
  let db = mem_db () in
  ignore (Db.define db "class m { a: int; b: int; c: int; pad: string; };");
  Db.create_cluster db "m";
  let rng = Prng.create 18 in
  let pad = String.make 64 'x' in
  let made = ref 0 in
  while !made < n do
    let k = min 2_000 (n - !made) in
    Db.with_txn db (fun txn ->
        for _ = 1 to k do
          ignore
            (Db.pnew txn "m"
               [
                 ("a", Int (Prng.int rng 1_000));
                 ("b", Int (Prng.int rng 1_000));
                 ("c", Int (Prng.int rng 2_000));
                 ("pad", Str pad);
               ])
        done);
    made := !made + k
  done;
  (* Non-sargable predicate: every run walks and decodes the whole extent,
     passing through every per-candidate emit point. *)
  let q = pred "x.a + x.b > x.c" in
  let scan () = Query.count db ~var:"x" ~cls:"m" ~suchthat:q () in
  let expected = scan () in
  (* Calibrate so a round is ~150ms of alternating scans. *)
  let _, m_once = timed (fun () -> ignore (scan ())) in
  let reps = max 3 (min 150 (int_of_float (0.075 /. max 1e-6 m_once.seconds))) in
  (* The disabled cost per scan is one load+branch per emit point — far below
     this container's scheduler jitter. Alternate single baseline/measured
     scans within a round (so any slow stretch hits both variants equally)
     and guard on the median of the per-round ratios, which shrugs off a
     round that lands on a throttled period. *)
  T.set_enabled false;
  let timed_scan () =
    let t0 = now () in
    if scan () <> expected then failwith "E18: count drift";
    now () -. t0
  in
  let round () =
    Gc.full_major ();
    let tb = ref 0.0 and td = ref 0.0 in
    for _ = 1 to reps do
      H.set_enabled false;
      tb := !tb +. timed_scan ();
      H.set_enabled true;
      td := !td +. timed_scan ()
    done;
    H.set_enabled false;
    (!tb, !td)
  in
  let rounds = List.init 5 (fun _ -> round ()) in
  let t_baseline = List.fold_left (fun a (b, _) -> min a b) Float.max_float rounds in
  let t_disabled = List.fold_left (fun a (_, d) -> min a d) Float.max_float rounds in
  let median_ratio =
    let rs = List.sort compare (List.map (fun (b, d) -> d /. max 1e-9 b) rounds) in
    List.nth rs (List.length rs / 2)
  in
  H.set_enabled true;
  T.set_enabled true;
  T.clear ();
  let t_traced =
    Gc.full_major ();
    let t = ref 0.0 in
    for _ = 1 to reps do
      t := !t +. timed_scan ()
    done;
    !t
  in
  T.dump "BENCH_trace_sample.json";
  let oc = open_out "BENCH_metrics.txt" in
  output_string oc (H.summary ());
  close_out oc;
  (* Restore process defaults: histograms on, tracer off and empty. *)
  T.set_enabled false;
  T.clear ();
  let row name s = [ name; fsec s; Printf.sprintf "%.1fµs" (s /. float reps *. 1e6) ] in
  table
    ~title:
      (Printf.sprintf "E18: %d-object scan, %d alternating reps/round, best round" n reps)
    ~header:[ "variant"; "time"; "per scan" ]
    [
      row "baseline (trace off, hist off)" t_baseline;
      row "default (trace off, hist on)" t_disabled;
      row "traced (trace on, hist on)" t_traced;
    ];
  guard "E18.disabled_overhead" ~hi:1.05 median_ratio;
  metric "E18.tracing_overhead" (t_traced /. max 1e-9 t_baseline);
  Db.close db;
  note "the compiled-in observability hooks cost one load+branch when off;";
  note "wrote BENCH_trace_sample.json (chrome://tracing) and BENCH_metrics.txt."

(* ------------------------------------------------------------------ E19 *)
(* Serving layer (PR 4): the paper's "programs as transactions against a
   shared store" run here over a real socket — a forked ode-served event
   loop on a temp disk database, hit by K closed-loop client processes
   issuing a mixed autocommit exec/query workload over loopback. Reports
   end-to-end throughput plus p50/p95/p99 request latency straight from the
   server's own [server.request] histogram (fetched through a control
   session's [.hist]); guards that the run completes with zero protocol
   errors and that a SIGTERM graceful shutdown leaves the store clean. *)

let e19 () =
  section "E19  network serving: closed-loop multi-client load over loopback";
  let module Server = Ode_served.Server in
  let module Client = Ode_served.Client in
  let clients = 4 in
  let per_client = scaled 300 in
  let db_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ode-bench-e19-%d-%f" (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  let srv_pid, port = Server.spawn ~db_dir () in
  let connect () = Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () in
  let ctl = connect () in
  ignore
    (Client.exec ctl
       "class kv { k: int; v: string; }; create cluster kv; create index on kv(k);");
  (* K closed-loop client processes: each statement is its own autocommit
     transaction, so sessions interleave without touching the exclusive
     explicit-txn slot. A child's exit code is its protocol-error count. *)
  flush stdout;
  flush stderr;
  let t0 = now () in
  let pids =
    List.init clients (fun i ->
        match Unix.fork () with
        | 0 ->
            let errors = ref 0 in
            (try
               let c = connect () in
               let rng = Prng.create (1900 + i) in
               for j = 1 to per_client do
                 (try
                    if Prng.int rng 10 < 7 then
                      ignore
                        (Client.exec c
                           (Printf.sprintf "pnew kv { k = %d, v = \"c%d-%d\" };"
                              (Prng.int rng 100_000) i j))
                    else
                      ignore
                        (Client.query c
                           (Printf.sprintf "forall x in kv suchthat x.k == %d"
                              (Prng.int rng 100_000)))
                  with _ -> incr errors)
               done;
               Client.close c
             with _ -> incr errors);
            Unix._exit (min 100 !errors)
        | pid -> pid)
  in
  let protocol_errors =
    List.fold_left
      (fun acc pid ->
        let _, status = Unix.waitpid [] pid in
        acc + (match status with Unix.WEXITED n -> n | _ -> 1))
      0 pids
  in
  let elapsed = now () -. t0 in
  let total = clients * per_client in
  (* Latency percentiles come from the server process itself: its
     [server.request] histogram timed every request it handled. *)
  let hist = Client.dot ctl ".hist server.request" in
  let hcount, p50_ns, p95_ns, p99_ns =
    try
      Scanf.sscanf hist "server.request count %d p50 %d p95 %d p99 %d"
        (fun c a b d -> (c, a, b, d))
    with _ -> (0, 0, 0, 0)
  in
  (try Client.close ctl with _ -> ());
  (* Graceful shutdown: drain, abort leftovers, exit 0, store recoverable. *)
  Unix.kill srv_pid Sys.sigterm;
  let _, srv_status = Unix.waitpid [] srv_pid in
  let clean_exit = srv_status = Unix.WEXITED 0 in
  let db = Db.open_ db_dir in
  let verify_ok = match Ode.Verify.run db with Ok () -> true | Error _ -> false in
  let rows = Query.count db ~var:"x" ~cls:"kv" () in
  Db.close db;
  let ms ns = float ns /. 1e6 in
  table
    ~title:
      (Printf.sprintf "E19: %d clients x %d requests, loopback, autocommit mix (70%% exec / 30%% query)"
         clients per_client)
    ~header:[ "measure"; "value" ]
    [
      [ "throughput"; fops (float total /. elapsed) ];
      [ "wall time"; fsec elapsed ];
      [ "p50 latency"; Printf.sprintf "%.3fms" (ms p50_ns) ];
      [ "p95 latency"; Printf.sprintf "%.3fms" (ms p95_ns) ];
      [ "p99 latency"; Printf.sprintf "%.3fms" (ms p99_ns) ];
      [ "requests timed (server)"; fint hcount ];
      [ "rows committed"; fint rows ];
    ];
  guard "E19.protocol_errors" ~hi:0.0 (float protocol_errors);
  guard "E19.clean_shutdown" ~lo:1.0 (if clean_exit then 1.0 else 0.0);
  guard "E19.post_shutdown_verify" ~lo:1.0 (if verify_ok then 1.0 else 0.0);
  metric "E19.throughput_rps" (float total /. elapsed);
  metric "E19.p50_ms" (ms p50_ns);
  metric "E19.p95_ms" (ms p95_ns);
  metric "E19.p99_ms" (ms p99_ns);
  metric "E19.rows_committed" (float rows);
  note "every request is a framed round trip through the select loop; the";
  note "store reopened clean after SIGTERM with all autocommits durable."

(* ------------------------------------------------------------------ E20 *)
(* Group commit (PR 5): the serving loop batches every autocommit executed
   in one scheduler tick under a single shared WAL fsync, acknowledging the
   whole batch before any reply hits a socket. This experiment boots the
   same multi-client closed loop as E19 — but with a pure commit workload,
   where the fsync dominates — once per durability level and compares
   end-to-end throughput. [full] pays one fsync per commit; [group] pays one
   per tick (replies still wait for it); [async] replies without waiting.
   The server's own counters supply the batching evidence: [wal_syncs] must
   stay well below the commit count in group mode, and [wal_sync_saved]
   counts exactly the fsyncs the batching avoided. *)

let e20 () =
  section "E20  group commit: shared fsync vs per-commit fsync under load";
  let module Server = Ode_served.Server in
  let module Client = Ode_served.Client in
  let clients = 4 in
  (* Floor the workload: below ~150 commits/client the whole run fits in a
     few milliseconds and the measured rates are scheduler-noise, which
     would defeat the CI regression compare against the committed
     baseline. The floor keeps even BENCH_SCALE=0.1 runs comparable. *)
  let per_client = max 150 (scaled 300) in
  (* Streaming clients: each keeps [depth] pipelined requests in flight
     (Client.exec_many) — offered-load throughput methodology, same spirit
     as pgbench's pipeline mode — so the server's batch scheduler actually
     sees multi-request ticks. Every request is still its own autocommit
     transaction. *)
  let depth = 25 in
  let total = clients * per_client in
  (* Parse "name 123" out of a [.stats] dump. *)
  let counter dump name =
    let prefix = name ^ " " in
    let plen = String.length prefix in
    let rec find i =
      if i + plen > String.length dump then None
      else if String.sub dump i plen = prefix then Some (i + plen)
      else find (i + 1)
    in
    match find 0 with
    | None -> 0
    | Some p ->
        let e = ref p in
        while !e < String.length dump && dump.[!e] >= '0' && dump.[!e] <= '9' do
          incr e
        done;
        if !e = p then 0 else int_of_string (String.sub dump p (!e - p))
  in
  let run mode =
    let db_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ode-bench-e20-%s-%d-%f" (Db.durability_name mode) (Unix.getpid ())
           (Unix.gettimeofday ()))
    in
    (* The server and client processes all fork from this (by now
       large-heaped) bench process; compact first so inherited garbage
       doesn't tax their GCs and flatten the mode-to-mode ratio. *)
    Gc.compact ();
    let srv_pid, port = Server.spawn ~durability:mode ~db_dir () in
    let connect () = Client.connect ~timeout:60. ~host:"127.0.0.1" ~port () in
    let ctl = connect () in
    ignore (Client.exec ctl "class kv { k: int; v: string; }; create cluster kv;");
    (* Zero the counters after setup so syncs/commits reflect the load. *)
    ignore (Client.dot ctl ".stats reset");
    flush stdout;
    flush stderr;
    (* Ready/go barrier: children fork and connect outside the timed
       window, so the measured rate is the steady streaming phase and stays
       comparable across BENCH_SCALE settings. *)
    let ready_r, ready_w = Unix.pipe () in
    let go_r, go_w = Unix.pipe () in
    let pids =
      List.init clients (fun i ->
          match Unix.fork () with
          | 0 ->
              let errors = ref 0 in
              (try
                 let c = connect () in
                 ignore (Unix.write_substring ready_w "r" 0 1);
                 ignore (Unix.read go_r (Bytes.create 1) 0 1);
                 let sent = ref 0 in
                 while !sent < per_client do
                   let n = min depth (per_client - !sent) in
                   let batch =
                     List.init n (fun k ->
                         let j = !sent + k + 1 in
                         Printf.sprintf "pnew kv { k = %d, v = \"c%d-%d\" };"
                           ((i * per_client) + j) i j)
                   in
                   List.iter
                     (function Ok _ -> () | Error _ -> incr errors)
                     (Client.exec_many c batch);
                   sent := !sent + n
                 done;
                 Client.close c
               with _ -> incr errors);
              Unix._exit (min 100 !errors)
          | pid -> pid)
    in
    let b = Bytes.create 1 in
    for _ = 1 to clients do
      ignore (Unix.read ready_r b 0 1)
    done;
    let t0 = now () in
    ignore (Unix.write_substring go_w "gggggggggggggggg" 0 clients);
    let protocol_errors =
      List.fold_left
        (fun acc pid ->
          let _, status = Unix.waitpid [] pid in
          acc + (match status with Unix.WEXITED n -> n | _ -> 1))
        0 pids
    in
    let elapsed = now () -. t0 in
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ ready_r; ready_w; go_r; go_w ];
    (* The batching evidence, read from the live server before shutdown.
       Counters only — they were reset after setup; the wal.group_size
       histogram is no good here because the forked server inherited the
       bench process's histogram memory. *)
    let stats = Client.dot ctl ".stats" in
    let syncs = counter stats "wal_syncs" in
    let saved = counter stats "wal_sync_saved" in
    (try Client.close ctl with _ -> ());
    Unix.kill srv_pid Sys.sigterm;
    let _, srv_status = Unix.waitpid [] srv_pid in
    let clean_exit = srv_status = Unix.WEXITED 0 in
    let db = Db.open_ db_dir in
    let verify_ok = match Ode.Verify.run db with Ok () -> true | Error _ -> false in
    let rows = Query.count db ~var:"x" ~cls:"kv" () in
    Db.close db;
    (float total /. elapsed, elapsed, protocol_errors, syncs, saved, clean_exit, verify_ok,
     rows)
  in
  (* Best of three repeats per mode. Each mode's timed phase lasts tens to
     hundreds of milliseconds, and scheduler noise on a shared box is
     one-sided (it only ever slows a run down), so the fastest repeat is
     the most faithful reading — and the one stable enough for the CI
     regression compare. Correctness signals are folded across all
     repeats: any repeat's protocol error, unclean exit, or failed verify
     still trips its guard. *)
  let repeats = 3 in
  let run_best mode =
    let runs = List.init repeats (fun _ -> run mode) in
    let best =
      List.fold_left
        (fun acc r ->
          let rps, _, _, _, _, _, _, _ = r and b_rps, _, _, _, _, _, _, _ = acc in
          if rps > b_rps then r else acc)
        (List.hd runs) runs
    in
    let rps, el, _, syncs, saved, _, _, rows = best in
    let err = List.fold_left (fun a (_, _, e, _, _, _, _, _) -> a + e) 0 runs in
    let clean = List.for_all (fun (_, _, _, _, _, c, _, _) -> c) runs in
    let ok = List.for_all (fun (_, _, _, _, _, _, v, _) -> v) runs in
    let min_rows =
      List.fold_left (fun a (_, _, _, _, _, _, _, r) -> min a r) rows runs
    in
    (rps, el, err, syncs, saved, clean, ok, min_rows)
  in
  let f_rps, f_el, f_err, f_syncs, _, f_clean, f_ok, f_rows = run_best Db.Full in
  let g_rps, g_el, g_err, g_syncs, g_saved, g_clean, g_ok, g_rows = run_best Db.Group in
  let a_rps, a_el, a_err, a_syncs, _, a_clean, a_ok, a_rows = run_best Db.Async in
  let row name rps el syncs rows =
    [
      name; fops rps; fsec el; fint syncs;
      Printf.sprintf "%.3f" (float syncs /. float total); fint rows;
    ]
  in
  table
    ~title:
      (Printf.sprintf
         "E20: %d streaming clients x %d autocommit inserts (pipeline depth %d) per durability level"
         clients per_client depth)
    ~header:[ "durability"; "commits/s"; "wall"; "wal syncs"; "syncs/commit"; "rows" ]
    [
      row "full (fsync per commit)" f_rps f_el f_syncs f_rows;
      row "group (fsync per batch)" g_rps g_el g_syncs g_rows;
      row "async (no wait)" a_rps a_el a_syncs a_rows;
    ];
  let all_clean = f_clean && g_clean && a_clean and all_ok = f_ok && g_ok && a_ok in
  guard "E20.protocol_errors" ~hi:0.0 (float (f_err + g_err + a_err));
  guard "E20.clean_shutdown" ~lo:1.0 (if all_clean then 1.0 else 0.0);
  guard "E20.post_shutdown_verify" ~lo:1.0 (if all_ok then 1.0 else 0.0);
  guard "E20.rows_durable" ~lo:(float (3 * total)) (float (f_rows + g_rows + a_rows));
  (* Sublinearity: shared fsyncs must make wal.sync strictly sub-linear in
     the commit count — some batches really held >1 commit. *)
  guard "E20.group_syncs_per_commit" ~hi:0.9 (float g_syncs /. float total);
  guard "E20.group_syncs_saved" ~lo:1.0 (float g_saved);
  (* The headline: on a tick-sharing workload, group >= 2x full. Only a
     guard at full scale — the 0.1-scale CI smoke is too short for a stable
     ratio there, where it stays a reported metric. *)
  if scale >= 1.0 then guard "E20.group_speedup" ~lo:2.0 (g_rps /. f_rps)
  else metric "E20.group_speedup" (g_rps /. f_rps);
  metric "E20.full_rps" f_rps;
  metric "E20.group_rps" g_rps;
  metric "E20.async_rps" a_rps;
  metric "E20.async_speedup" (a_rps /. f_rps);
  metric "E20.group_syncs" (float g_syncs);
  metric "E20.full_syncs" (float f_syncs);
  metric "E20.group_sync_saved" (float g_saved);
  note "group mode acknowledged every commit (replies wait for the shared";
  note "fsync) yet paid a fraction of full's wal.sync calls; with the fsync";
  note "amortized away execution dominates, so async (which replies before";
  note "durability, loss bounded by the window) gains little more."

(* ------------------------------------------------------------------ E21 *)
(* Replication (PR 6): WAL-shipping to a warm standby. Two questions with
   operational weight: how fast does a fresh standby catch up to an
   established primary (bootstrap + stream replay, the recovery-time bound
   for adding capacity or replacing a dead standby), and what does one
   read-only standby add to aggregate read throughput when half the read
   pool routes to it? Guards that the standby converges byte-exactly (row
   count), that both processes shut down clean and verify, and that the
   read phases finish without protocol errors. *)

let e21 () =
  section "E21  replication: standby catch-up and read scaling";
  let module Server = Ode_served.Server in
  let module Client = Ode_served.Client in
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ode-bench-e21-%s-%d-%f" name (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  (* Parse "name 1234" out of a [.stats]/[.replication] dump. *)
  (* Parse "name 123" out of a dump, whether the entries are one per line
     ([.replication], space-padded) or double-space separated on a single
     line ([.stats]). The name must be whitespace-bounded so "lsn" does not
     match inside "durable_lsn". *)
  let counter dump name =
    let dl = String.length dump and nl = String.length name in
    let is_sp c = c = ' ' || c = '\n' in
    let rec scan i =
      if i + nl >= dl then None
      else if
        (i = 0 || is_sp dump.[i - 1])
        && String.sub dump i nl = name
        && is_sp dump.[i + nl]
      then begin
        let j = ref (i + nl) in
        while !j < dl && dump.[!j] = ' ' do
          incr j
        done;
        let k = ref !j in
        while !k < dl && dump.[!k] >= '0' && dump.[!k] <= '9' do
          incr k
        done;
        if !k > !j then int_of_string_opt (String.sub dump !j (!k - !j))
        else scan (i + 1)
      end
      else scan (i + 1)
    in
    scan 0
  in
  let pdir = tmp "p" and rdir = tmp "r" in
  let srv_pid, port, repl_port, _ =
    Server.spawn_full ~repl_port:0 ~durability:Db.Group ~db_dir:pdir ()
  in
  let connect ?replicas port = Client.connect ~timeout:30. ?replicas ~host:"127.0.0.1" ~port () in
  let ctl = connect port in
  (* No index on [k]: the read phase wants cluster scans, so each query
     costs real server CPU and the standby's second event loop buys
     capacity (indexed point reads are so cheap the closed-loop clients
     bottleneck on round trips instead). *)
  ignore (Client.exec ctl "class kv { k: int; v: string; }; create cluster kv;");
  (* Build the primary's history: pipelined autocommit inserts. *)
  let n = scaled 2000 in
  let rng = Prng.create 2100 in
  let loaded = ref 0 in
  let _, m_load =
    timed (fun () ->
        while !loaded < n do
          let k = min 50 (n - !loaded) in
          let progs =
            List.init k (fun j ->
                Printf.sprintf "pnew kv { k = %d, v = \"row-%d\" };" (Prng.int rng 100_000)
                  (!loaded + j))
          in
          List.iter
            (function Ok _ -> () | Error e -> failwith ("E21 load: " ^ e))
            (Client.exec_many ctl progs);
          loaded := !loaded + k
        done)
  in
  Client.ping ctl;
  let plsn = Client.last_seen_lsn ctl in
  (* Catch-up: a standby born now must bootstrap (snapshot or WAL resume)
     and replay the whole history before it is useful. Clock from fork to
     the standby reporting the primary's commit LSN. *)
  flush stdout;
  flush stderr;
  let t0 = now () in
  let rep_pid, rport = Server.spawn ~replica_of:("127.0.0.1", repl_port) ~db_dir:rdir () in
  let rctl = connect rport in
  let deadline = now () +. 120. in
  let rec wait_caught_up () =
    let l =
      match counter (Client.dot rctl ".replication") "lsn" with Some l -> l | None -> -1
    in
    if l < plsn then
      if now () > deadline then failwith "E21: standby never caught up"
      else begin
        Unix.sleepf 0.02;
        wait_caught_up ()
      end
  in
  wait_caught_up ();
  let catchup = now () -. t0 in
  let shipped_mb =
    match counter (Client.dot ctl ".stats") "repl.bytes_sent" with
    | Some b -> float b /. 1e6
    | None -> 0.0
  in
  (* Read scaling: 4 closed-loop reader processes of narrow unindexed
     range scans. Phase one reads from the primary alone; phase two routes
     half the pool through the standby. *)
  let read_phase ~route =
    let clients = 4 in
    let per_client = scaled 100 in
    flush stdout;
    flush stderr;
    let t0 = now () in
    let pids =
      List.init clients (fun ci ->
          match Unix.fork () with
          | 0 ->
              let errors = ref 0 in
              (try
                 let replicas =
                   if route ci then Some [ ("127.0.0.1", rport) ] else None
                 in
                 let c = connect ?replicas port in
                 let rng = Prng.create (2110 + ci) in
                 for _ = 1 to per_client do
                   try
                     let lo = Prng.int rng 100_000 in
                     ignore
                       (Client.query c
                          (Printf.sprintf "forall x in kv suchthat x.k >= %d && x.k < %d"
                             lo (lo + 50)))
                   with _ -> incr errors
                 done;
                 Client.close c
               with _ -> incr errors);
              Unix._exit (min 100 !errors)
          | pid -> pid)
    in
    let errors =
      List.fold_left
        (fun acc pid ->
          let _, status = Unix.waitpid [] pid in
          acc + (match status with Unix.WEXITED e -> e | _ -> 1))
        0 pids
    in
    (float (clients * per_client) /. (now () -. t0), errors)
  in
  let rps_primary, err_a = read_phase ~route:(fun _ -> false) in
  let rps_mixed, err_b = read_phase ~route:(fun ci -> ci land 1 = 1) in
  (try Client.close rctl with _ -> ());
  (try Client.close ctl with _ -> ());
  (* Graceful shutdown of both; each directory must reopen clean with the
     full row count — the standby byte-exact with the primary. *)
  Unix.kill rep_pid Sys.sigterm;
  let _, rep_status = Unix.waitpid [] rep_pid in
  Unix.kill srv_pid Sys.sigterm;
  let _, srv_status = Unix.waitpid [] srv_pid in
  let clean = srv_status = Unix.WEXITED 0 && rep_status = Unix.WEXITED 0 in
  let inspect dir =
    let db = Db.open_ dir in
    let ok = match Ode.Verify.run db with Ok () -> true | Error _ -> false in
    let rows = Query.count db ~var:"x" ~cls:"kv" () in
    Db.close db;
    (ok, rows)
  in
  let p_ok, p_rows = inspect pdir in
  let r_ok, r_rows = inspect rdir in
  table
    ~title:
      (Printf.sprintf
         "E21: %d-commit history; standby catch-up, then 4 readers (unindexed range scans)"
         plsn)
    ~header:[ "measure"; "value" ]
    [
      [ "load (pipelined inserts)"; fops (ops_per_sec m_load n) ];
      [ "standby catch-up"; fsec catchup ];
      [ "catch-up rate"; fops (float plsn /. catchup) ];
      [ "wal shipped"; Printf.sprintf "%.2fMB" shipped_mb ];
      [ "read rps, primary only"; fops rps_primary ];
      [ "read rps, half on standby"; fops rps_mixed ];
      [ "read scaling"; ffloat (rps_mixed /. rps_primary) ];
      [ "rows (primary/standby)"; Printf.sprintf "%d / %d" p_rows r_rows ];
    ];
  guard "E21.protocol_errors" ~hi:0.0 (float (err_a + err_b));
  guard "E21.clean_shutdown" ~lo:1.0 (if clean then 1.0 else 0.0);
  guard "E21.post_shutdown_verify" ~lo:1.0 (if p_ok && r_ok then 1.0 else 0.0);
  guard "E21.replica_rows" ~lo:(float p_rows) ~hi:(float p_rows) (float r_rows);
  metric "E21.catchup_s" catchup;
  metric "E21.catchup_commits_per_s" (float plsn /. catchup);
  metric "E21.shipped_mb" shipped_mb;
  metric "E21.read_rps_primary" rps_primary;
  metric "E21.read_rps_with_replica" rps_mixed;
  metric "E21.read_scaling" (rps_mixed /. rps_primary);
  note "the standby replays the primary's WAL through the recovery redo";
  note "path and serves reads from its own event loop; routing half the";
  note "read pool to it frees the primary's loop for the other half";
  note "(the scaling ratio only exceeds 1 when the two server processes";
  note "get separate cores — on a single-core runner they timeshare)."

(* ------------------------------------------------------------------ E22 *)
(* Multicore serving (PR 7): the poll-based loop splits across OCaml
   domains — reader domains execute autocommitted queries in parallel
   under the shared engine lock while the writer domain keeps writes and
   the group-commit scheduler. Sweep [--domains] over 1/2/4 against the
   same read-heavy closed loop (unindexed range scans, so each request
   costs real server CPU, with a 1-in-16 write mix funneled to the writer)
   and report the scaling. Guards: zero protocol errors and a clean,
   verified shutdown at every domain count; on runners with >= 4 cores the
   4-domain sweep must at least double the 1-domain read throughput. On
   fewer cores the domains timeshare and the ratio is reported, not
   gated. *)

let e22 () =
  section "E22  multicore serving: read-mix throughput vs --domains";
  let module Server = Ode_served.Server in
  let module Client = Ode_served.Client in
  let clients = 4 in
  (* Floor the closed loop: a sweep shorter than ~100 requests/client
     measures fork+connect overhead, not serving capacity, and the CI
     compare needs rates from the same regime as the committed baseline. *)
  let per_client = max 100 (scaled 250) in
  let n_rows = scaled 2000 in
  let run domains =
    let db_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ode-bench-e22-d%d-%d-%f" domains (Unix.getpid ())
           (Unix.gettimeofday ()))
    in
    let srv_pid, port = Server.spawn ~domains ~db_dir () in
    let connect () = Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () in
    let ctl = connect () in
    ignore (Client.exec ctl "class kv { k: int; v: string; }; create cluster kv;");
    (* Identical seeded history per domain count: pipelined autocommits. *)
    let rng = Prng.create 2200 in
    let loaded = ref 0 in
    while !loaded < n_rows do
      let k = min 50 (n_rows - !loaded) in
      let progs =
        List.init k (fun j ->
            Printf.sprintf "pnew kv { k = %d, v = \"row-%d\" };" (Prng.int rng 100_000)
              (!loaded + j))
      in
      List.iter
        (function Ok _ -> () | Error e -> failwith ("E22 load: " ^ e))
        (Client.exec_many ctl progs);
      loaded := !loaded + k
    done;
    (* The sweep: closed-loop readers of narrow unindexed range scans with
       a 1-in-16 insert mixed in — reads fan out across reader domains,
       writes funnel through the writer, same seeds at every width. *)
    flush stdout;
    flush stderr;
    let t0 = now () in
    let pids =
      List.init clients (fun ci ->
          match Unix.fork () with
          | 0 ->
              let errors = ref 0 in
              (try
                 let c = connect () in
                 let rng = Prng.create (2210 + ci) in
                 for j = 1 to per_client do
                   try
                     if j mod 16 = 0 then
                       ignore
                         (Client.exec c
                            (Printf.sprintf "pnew kv { k = %d, v = \"w%d-%d\" };"
                               (Prng.int rng 100_000) ci j))
                     else begin
                       let lo = Prng.int rng 100_000 in
                       ignore
                         (Client.query c
                            (Printf.sprintf "forall x in kv suchthat x.k >= %d && x.k < %d"
                               lo (lo + 50)))
                     end
                   with _ -> incr errors
                 done;
                 Client.close c
               with _ -> incr errors);
              Unix._exit (min 100 !errors)
          | pid -> pid)
    in
    let errors =
      List.fold_left
        (fun acc pid ->
          let _, status = Unix.waitpid [] pid in
          acc + (match status with Unix.WEXITED e -> e | _ -> 1))
        0 pids
    in
    let rps = float (clients * per_client) /. (now () -. t0) in
    (try Client.close ctl with _ -> ());
    Unix.kill srv_pid Sys.sigterm;
    let _, status = Unix.waitpid [] srv_pid in
    let clean = status = Unix.WEXITED 0 in
    let db = Db.open_ db_dir in
    let ok = match Ode.Verify.run db with Ok () -> true | Error _ -> false in
    let rows = Query.count db ~var:"x" ~cls:"kv" () in
    Db.close db;
    (rps, errors, clean, ok, rows)
  in
  let rps1, err1, clean1, ok1, rows1 = run 1 in
  let rps2, err2, clean2, ok2, rows2 = run 2 in
  let rps4, err4, clean4, ok4, rows4 = run 4 in
  let cores = Domain.recommended_domain_count () in
  let row name rps rows =
    [ name; fops rps; ffloat (rps /. max 1e-9 rps1); fint rows ]
  in
  table
    ~title:
      (Printf.sprintf
         "E22: %d clients x %d requests (15/16 range scans), %d-row table, %d cores"
         clients per_client n_rows cores)
    ~header:[ "serving domains"; "requests/s"; "vs 1 domain"; "rows" ]
    [
      row "1 (classic loop)" rps1 rows1;
      row "2 (1 reader)" rps2 rows2;
      row "4 (3 readers)" rps4 rows4;
    ];
  guard "E22.protocol_errors" ~hi:0.0 (float (err1 + err2 + err4));
  guard "E22.clean_shutdown" ~lo:1.0 (if clean1 && clean2 && clean4 then 1.0 else 0.0);
  guard "E22.post_shutdown_verify" ~lo:1.0 (if ok1 && ok2 && ok4 then 1.0 else 0.0);
  guard "E22.rows_durable" ~lo:(float (3 * n_rows)) (float (rows1 + rows2 + rows4));
  (* The headline parallelism claim needs real cores under the domains;
     on smaller runners (CI containers are often 1-2 vCPUs) the ratio is
     recorded as a metric — named without a gated substring, since a
     timesharing ratio near 1.0 is expected, not a regression. *)
  if cores >= 4 && scale >= 1.0 then guard "E22.scale_d4_over_d1" ~lo:2.0 (rps4 /. rps1)
  else metric "E22.scale_d4_over_d1" (rps4 /. rps1);
  metric "E22.scale_d2_over_d1" (rps2 /. rps1);
  metric "E22.d1_read_rps" rps1;
  metric "E22.d2_read_rps" rps2;
  metric "E22.d4_read_rps" rps4;
  note "reader domains drain a bounded job queue of autocommitted queries";
  note "under a shared engine lock; writes (and the fsync scheduler) stay";
  note "on the writer domain, so the reply-after-fsync guarantee is intact";
  note "at every width. Scaling needs cores: with fewer than 4 the domains";
  note "timeshare one socket loop and the ratio hovers around 1.0."

(* ------------------------------------------------------------------ E23 *)
(* Observability overhead (PR 8): the full surface armed — span tracer on,
   slow-query log armed, a sidecar process scraping GET /metrics at ~2 Hz
   throughout — versus a dark server, on the same closed-loop mixed
   workload over loopback. Rounds alternate between the two live servers
   (any slow stretch of the container hits both variants) and the guard is
   on the median per-round ratio, E18's discipline: the armed surface must
   cost at most 5% throughput at full scale. *)

let e23_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* One-shot GET against the metrics listener: request, then read to EOF. *)
let e23_http_get port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rq = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let rec send pos =
        if pos < String.length rq then
          send (pos + Unix.write_substring fd rq pos (String.length rq - pos))
      in
      send 0;
      let b = Buffer.create 4096 in
      let buf = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b buf 0 n;
            drain ()
        | exception Unix.Unix_error (EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents b)

let e23 () =
  section "E23  observability overhead: metrics + tracing + slow log armed vs dark";
  let module Server = Ode_served.Server in
  let module Client = Ode_served.Client in
  let n_rows = scaled 1_000 in
  let per_round = max 60 (scaled 200) in
  let rounds = 5 in
  let spawn tag ~observed =
    let db_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ode-bench-e23-%s-%d-%f" tag (Unix.getpid ()) (Unix.gettimeofday ()))
    in
    let pid, port, _, mport =
      if observed then Server.spawn_full ~domains:2 ~metrics_port:0 ~slow_query_ms:50 ~db_dir ()
      else Server.spawn_full ~domains:2 ~db_dir ()
    in
    (pid, port, mport)
  in
  let dark_pid, dark_port, _ = spawn "dark" ~observed:false in
  let obs_pid, obs_port, obs_mport = spawn "obs" ~observed:true in
  let connect port = Client.connect ~timeout:30. ~host:"127.0.0.1" ~port () in
  (* Identical seeded tables on both servers. *)
  let seed port =
    let c = connect port in
    ignore (Client.exec c "class kv { k: int; v: string; }; create cluster kv;");
    let rng = Prng.create 2300 in
    let loaded = ref 0 in
    while !loaded < n_rows do
      let k = min 50 (n_rows - !loaded) in
      let progs =
        List.init k (fun j ->
            Printf.sprintf "pnew kv { k = %d, v = \"row-%d\" };" (Prng.int rng 100_000)
              (!loaded + j))
      in
      List.iter
        (function Ok _ -> () | Error e -> failwith ("E23 load: " ^ e))
        (Client.exec_many c progs);
      loaded := !loaded + k
    done;
    c
  in
  let dark_c = seed dark_port in
  let obs_c = seed obs_port in
  ignore (Client.dot obs_c ".trace on");
  (* The sidecar scraper: a forked process hitting /metrics twice a second
     for the whole measured window, like a Prometheus agent would. *)
  flush stdout;
  flush stderr;
  let scraper_pid =
    match Unix.fork () with
    | 0 ->
        (try
           while true do
             ignore (e23_http_get obs_mport "/metrics");
             Unix.sleepf 0.5
           done
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  (* Closed-loop mixed round: 1-in-8 inserts among narrow unindexed range
     scans, same seeds on both servers. *)
  let round c seed =
    let rng = Prng.create seed in
    let t0 = now () in
    for j = 1 to per_round do
      if j mod 8 = 0 then
        ignore
          (Client.exec c
             (Printf.sprintf "pnew kv { k = %d, v = \"w%d\" };" (Prng.int rng 100_000) j))
      else begin
        let lo = Prng.int rng 100_000 in
        ignore
          (Client.query c
             (Printf.sprintf "forall x in kv suchthat x.k >= %d && x.k < %d" lo (lo + 40)))
      end
    done;
    now () -. t0
  in
  ignore (round dark_c 2301);
  ignore (round obs_c 2301);
  let pairs =
    List.init rounds (fun r ->
        let td = round dark_c (2310 + r) in
        let to_ = round obs_c (2310 + r) in
        (td, to_))
  in
  let t_dark = List.fold_left (fun a (d, _) -> a +. d) 0.0 pairs in
  let t_obs = List.fold_left (fun a (_, o) -> a +. o) 0.0 pairs in
  let median_ratio =
    let rs = List.sort compare (List.map (fun (d, o) -> o /. max 1e-9 d) pairs) in
    List.nth rs (List.length rs / 2)
  in
  (* The endpoint stayed coherent under load: one last scrape must carry
     counters and quantiles a collector can parse. *)
  let scrape = e23_http_get obs_mport "/metrics" in
  let scrape_ok =
    e23_contains scrape "200 OK"
    && e23_contains scrape "ode_server_requests"
    && e23_contains scrape "quantile=\"0.99\""
  in
  (try Unix.kill scraper_pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] scraper_pid);
  (try Client.close dark_c with _ -> ());
  (try Client.close obs_c with _ -> ());
  let stop pid =
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    status = Unix.WEXITED 0
  in
  let clean = stop dark_pid && stop obs_pid in
  let reqs = rounds * per_round in
  let row name t = [ name; fops (float reqs /. max 1e-9 t); fsec (t /. float rounds) ] in
  table
    ~title:
      (Printf.sprintf "E23: %d alternating rounds x %d requests (7/8 range scans), %d rows"
         rounds per_round n_rows)
    ~header:[ "variant"; "requests/s"; "per round" ]
    [
      row "dark (no metrics, no tracing)" t_dark;
      row "armed (tracing + slow log + 2Hz scrapes)" t_obs;
    ];
  (* Closed-loop sockets are noisier than E18's in-process scans: the 5%
     bar arms at full scale; the smoke run keeps a loose backstop so a
     pathological slowdown (e.g. a scrape stalling the poll loop) still
     fails CI. *)
  if scale >= 1.0 then guard "E23.overhead_ratio" ~hi:1.05 median_ratio
  else guard "E23.overhead_ratio" ~hi:1.25 median_ratio;
  guard "E23.scrape_parseable" ~lo:1.0 (if scrape_ok then 1.0 else 0.0);
  guard "E23.clean_shutdown" ~lo:1.0 (if clean then 1.0 else 0.0);
  metric "E23.dark_rps" (float reqs /. max 1e-9 t_dark);
  metric "E23.observed_rps" (float reqs /. max 1e-9 t_obs);
  note "the armed variant pays one DLS read per span site, a histogram";
  note "observe per request, and shares its poll loop with the HTTP";
  note "scraper; the slow-query threshold (50ms) never fires on this";
  note "workload, so its cost is the arming check alone."

(* ------------------------------------------------------------------ E24 *)
(* MVCC snapshot isolation (PR 9): concurrent read-write clients each run
   explicit transactions as separate begin / update / commit round-trips
   (so they genuinely interleave on the server's event loop) against a
   small account table with a deliberate hot key, while one long-running
   transaction holds its snapshot open across the whole contention phase
   and closed-loop readers scan throughout. Claims under guard: snapshot
   readers do not collapse when writers commit under them; the long
   snapshot stays stable no matter how many commits land; conflicts are
   bounded and every conflicted transaction, replayed wholesale by its
   client, lands exactly once; the long transaction's disjoint write set
   still commits at the end. *)

(* `.stats` prints "name value" pairs; pull one counter out. *)
let e24_counter stats name =
  let toks =
    String.split_on_char '\n' stats
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun s -> s <> "")
  in
  let rec go = function
    | a :: b :: rest ->
        if a = name then ( try int_of_string b with Failure _ -> 0) else go (b :: rest)
    | _ -> 0
  in
  go toks

let e24 () =
  section "E24  MVCC: concurrent write txns vs snapshot readers";
  let module Server = Ode_served.Server in
  let module Client = Ode_served.Client in
  let readers = 3 and writers = 3 in
  let per_reader = max 80 (scaled 250) in
  let per_writer = max 30 (scaled 120) in
  let n_accts = 64 in
  let held_id = 1000 in
  let db_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ode-bench-e24-%d-%f" (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  let srv_pid, port = Server.spawn ~db_dir () in
  let connect ?(retries = 4) () =
    Client.connect ~timeout:30. ~retries ~host:"127.0.0.1" ~port ()
  in
  let ctl = connect () in
  ignore (Client.exec ctl "class acct { id: int; bal: int; }; create cluster acct;");
  let load ids =
    List.iter
      (function Ok _ -> () | Error e -> failwith ("E24 load: " ^ e))
      (Client.exec_many ctl
         (List.map (fun i -> Printf.sprintf "pnew acct { id = %d, bal = 0 };" i) ids))
  in
  load (List.init n_accts (fun i -> i));
  load (List.init 4 (fun i -> held_id + i));
  let fork_readers tag =
    List.init readers (fun ri ->
        match Unix.fork () with
        | 0 ->
            let errors = ref 0 in
            (try
               let c = connect () in
               let rng = Prng.create (2400 + (100 * tag) + ri) in
               for _ = 1 to per_reader do
                 try
                   let lo = Prng.int rng (n_accts - 16) in
                   ignore
                     (Client.query c
                        (Printf.sprintf "forall a in acct suchthat a.id >= %d && a.id < %d"
                           lo (lo + 16)))
                 with _ -> incr errors
               done;
               Client.close c
             with _ -> incr errors);
            Unix._exit (min 100 !errors)
        | pid -> pid)
  in
  let join pids =
    List.fold_left
      (fun acc pid ->
        let _, status = Unix.waitpid [] pid in
        acc + (match status with Unix.WEXITED e -> e | _ -> 1))
      0 pids
  in
  (* Phase A: readers alone, the uncontended baseline. *)
  flush stdout;
  flush stderr;
  let t0 = now () in
  let err_solo = join (fork_readers 0) in
  let rps_solo = float (readers * per_reader) /. (now () -. t0) in
  (* Phase B: open the long-running transaction, pin its snapshot, then
     unleash writers and readers together. *)
  let holder = connect () in
  ignore (Client.exec holder "begin;");
  let dirty () =
    List.length
      (Client.query holder
         (Printf.sprintf "forall a in acct suchthat a.bal > 0 && a.id < %d" n_accts))
  in
  let stable0 = dirty () in
  ignore
    (Client.exec holder
       (Printf.sprintf "forall a in acct suchthat a.id = %d { a.bal := a.bal + 1; };" held_id));
  flush stdout;
  flush stderr;
  let t1 = now () in
  let writer_pids =
    List.init writers (fun wi ->
        match Unix.fork () with
        | 0 ->
            let errors = ref 0 in
            (try
               (* retries:0 — a replayed bare [commit;] can never win, so
                  conflict recovery is re-running the WHOLE transaction,
                  which only this loop can do. *)
               let c = connect ~retries:0 () in
               let rng = Prng.create (2450 + wi) in
               for _ = 1 to per_writer do
                 (* 1-in-3 transactions hit account 0: a hot key that
                    manufactures real first-committer-wins races. *)
                 let id = if Prng.int rng 3 = 0 then 0 else Prng.int rng n_accts in
                 let rec attempt tries =
                   if tries > 50 then incr errors
                   else
                     try
                       ignore (Client.exec c "begin;");
                       ignore
                         (Client.exec c
                            (Printf.sprintf
                               "forall a in acct suchthat a.id = %d { a.bal := a.bal + 1; };"
                               id));
                       ignore (Client.exec c "commit;")
                     with
                     | Client.Conflict _ -> attempt (tries + 1)
                     | Client.Server_error _ ->
                         (try ignore (Client.exec c "abort;") with _ -> ());
                         incr errors
                 in
                 attempt 0
               done;
               Client.close c
             with _ -> incr errors);
            Unix._exit (min 100 !errors)
        | pid -> pid)
  in
  let reader_pids = fork_readers 1 in
  let err_read = join reader_pids in
  let rps_contended = float (readers * per_reader) /. (now () -. t1) in
  let err_write = join writer_pids in
  let writer_elapsed = now () -. t1 in
  (* The long transaction's snapshot must have seen none of it. *)
  let stable1 = dirty () in
  ignore (Client.exec holder "commit;");
  Client.close holder;
  (* A fresh autocommit snapshot sees the full increment history. *)
  let visible =
    List.length
      (Client.query ctl
         (Printf.sprintf "forall a in acct suchthat a.bal > 0 && a.id < %d" n_accts))
  in
  let conflicts = e24_counter (Client.dot ctl ".stats") "txn.conflicts" in
  (try Client.close ctl with _ -> ());
  Unix.kill srv_pid Sys.sigterm;
  let _, status = Unix.waitpid [] srv_pid in
  let clean = status = Unix.WEXITED 0 in
  let db = Db.open_ db_dir in
  let ok = match Ode.Verify.run db with Ok () -> true | Error _ -> false in
  let sum, held_bal =
    Db.with_txn db (fun txn ->
        List.fold_left
          (fun (sum, held) oid ->
            let geti f = match Db.get_field txn oid f with Value.Int i -> i | _ -> 0 in
            let id = geti "id" and bal = geti "bal" in
            if id < n_accts then (sum + bal, held)
            else if id = held_id then (sum, bal)
            else (sum, held))
          (0, 0)
          (Query.to_list db ~txn ~var:"x" ~cls:"acct" ()))
  in
  Db.close db;
  let issued = writers * per_writer in
  table
    ~title:
      (Printf.sprintf
         "E24: %d readers x %d scans vs %d writers x %d explicit txns (hot key 1/3), %d accounts"
         readers per_reader writers per_writer n_accts)
    ~header:[ "phase"; "requests/s"; "conflicts" ]
    [
      [ "readers solo"; fops rps_solo; "-" ];
      [ "readers vs write txns"; fops rps_contended; "-" ];
      [ "write txns (3 round-trips each)"; fops (float issued /. writer_elapsed); fint conflicts ];
    ];
  guard "E24.protocol_errors" ~hi:0.0 (float (err_solo + err_read + err_write));
  guard "E24.clean_shutdown" ~lo:1.0 (if clean then 1.0 else 0.0);
  guard "E24.post_shutdown_verify" ~lo:1.0 (if ok then 1.0 else 0.0);
  (* Snapshot stability: the long transaction's view of "dirty accounts"
     must not move, no matter how many commits land under it. *)
  guard "E24.snapshot_stable" ~lo:(float stable0) ~hi:(float stable0) (float stable1);
  (* Exactly-once: every one of the [issued] increments — including every
     conflicted-then-replayed one — lands once. Lost updates read low,
     double-applied retries read high. *)
  guard "E24.increments_exactly_once" ~lo:(float issued) ~hi:(float issued) (float sum);
  (* The long transaction's disjoint write set commits despite hundreds of
     concurrent commits since its snapshot. *)
  guard "E24.long_txn_commits" ~lo:1.0 ~hi:1.0 (float held_bal);
  guard "E24.post_commit_visible" ~lo:1.0 (float visible);
  (* Conflicts happen (the hot key guarantees pressure) but stay bounded:
     a first-committer-wins livelock would blow retries per txn up. *)
  guard "E24.conflicts_per_txn" ~hi:3.0 (float conflicts /. float issued);
  (if scale >= 1.0 then guard "E24.read_retention" ~lo:0.3 (rps_contended /. max 1e-9 rps_solo)
   else metric "E24.read_retention" (rps_contended /. max 1e-9 rps_solo));
  metric "E24.read_rps_solo" rps_solo;
  metric "E24.read_rps_contended" rps_contended;
  metric "E24.writer_txn_per_s" (float issued /. writer_elapsed);
  metric "E24.conflicts" (float conflicts);
  note "writers spread each transaction over three round-trips, so their";
  note "snapshots genuinely overlap on the event loop; the hot key makes";
  note "losers real and the client-side whole-transaction replay is what";
  note "the exactly-once sum certifies. The long-running holder pins the";
  note "GC horizon: every concurrent commit records pre-images for it,";
  note "and its final disjoint commit must still win.";
  note "Reader throughput under write load measures snapshot reads that";
  note "never block on writers (no slot, no writer latch on the read path)."

(* ----------------------------------------------------------------- E25 *)
(* The cost-based optimizer: a two-extent equi-join on an unindexed field
   runs as a nested loop until [analyze] gives the planner the statistics
   to price a hash join, and a ref-equality join fuses into pointer
   dereferences with no inner scan at all. Predicted rows/costs from the
   plan are recorded next to the measured values so EXPERIMENTS.md can
   show how honest the estimates are. *)

let e25 () =
  section "E25  query optimizer: join strategies and estimate accuracy";
  let db = mem_db () in
  ignore
    (Db.define db
       {|class dept25 { dname: string; budget: int; };
         class emp25 { ename: string; works: string; boss: ref dept25; salary: int; };|});
  Db.create_cluster db "dept25";
  Db.create_cluster db "emp25";
  (* The index on the join field is what gives analyze a histogram with a
     distinct count — the source of the join-cardinality estimate. *)
  Db.create_index db ~cls:"emp25" ~field:"works";
  let n_dept = scaled 200 and n_emp = scaled 20_000 in
  let depts =
    Db.with_txn db (fun txn ->
        Array.init n_dept (fun i ->
            Db.pnew txn "dept25"
              [ ("dname", Value.Str (Printf.sprintf "d%d" i)); ("budget", Value.Int (i * 10)) ]))
  in
  let rng = Prng.create 25 in
  Db.with_txn db (fun txn ->
      for i = 0 to n_emp - 1 do
        let d = Prng.int rng n_dept in
        ignore
          (Db.pnew txn "emp25"
             [ ("ename", Value.Str (Printf.sprintf "e%d" i));
               ("works", Value.Str (Printf.sprintf "d%d" d));
               ("boss", Value.Ref depts.(d));
               ("salary", Value.Int (Prng.int rng 5000)) ])
      done);
  let outer = ("d", "dept25", false) and inner = ("e", "emp25", false) in
  let works_eq = pred "e.works == d.dname" in
  let boss_eq = pred "d == e.boss" in
  let run_pairs ?outer_suchthat ?inner_suchthat ~outer ~inner () =
    let pairs = ref 0 in
    let _, m =
      timed (fun () ->
          Query.run_join db ~outer ~inner ?outer_suchthat ?inner_suchthat (fun _ _ -> incr pairs))
    in
    (!pairs, m)
  in
  let strategy_name jp =
    match jp.Ode.Planner.j_strategy with
    | Ode.Planner.Nested_loop -> "nested loop"
    | Ode.Planner.Fused_deref f -> "deref " ^ f
    | Ode.Planner.Fused_member f -> "member " ^ f
    | Ode.Planner.Hash_join _ -> "hash join"
  in
  (* Before analyze there are no statistics, so the equi-join stays a
     nested loop — though its per-outer-row inner plan is still an index
     probe on works (the heuristic planner uses indexes, just not costs). *)
  let jp_cold = Ode.Planner.plan_join db ~outer ~inner ~inner_suchthat:works_eq () in
  let pairs_inl, m_inl = run_pairs ~outer ~inner ~inner_suchthat:works_eq () in
  (* The true nested-loop floor: the same predicate hidden inside a
     disjunction neither the link detector nor the sarg extractor can see
     through, so every outer row rescans the whole inner extent. *)
  let opaque_works = pred "e.works == d.dname || 1 == 2" in
  let jp_scan = Ode.Planner.plan_join db ~outer ~inner ~inner_suchthat:opaque_works () in
  let pairs_nested, m_nested = run_pairs ~outer ~inner ~inner_suchthat:opaque_works () in
  (* After analyze the same query is priced as a hash join. *)
  ignore (Db.analyze db);
  let jp_hot = Ode.Planner.plan_join db ~outer ~inner ~inner_suchthat:works_eq () in
  let pairs_hash, m_hash = run_pairs ~outer ~inner ~inner_suchthat:works_eq () in
  (* The ref-equality join fuses into a dereference per outer row; its
     nested-loop baseline is the same join with fusion defeated by an
     equivalent but unrecognizable predicate shape. *)
  let eoutr = ("e", "emp25", false) and dinner = ("d", "dept25", false) in
  let jp_deref = Ode.Planner.plan_join db ~outer:eoutr ~inner:dinner ~inner_suchthat:boss_eq () in
  let pairs_deref, m_deref = run_pairs ~outer:eoutr ~inner:dinner ~inner_suchthat:boss_eq () in
  (* Same result set, but hidden inside a disjunction the link detector
     cannot (and should not) see through — the honest nested baseline. *)
  let opaque_boss = pred "e.boss == d || 1 == 2" in
  let jp_opaque = Ode.Planner.plan_join db ~outer:eoutr ~inner:dinner ~inner_suchthat:opaque_boss () in
  let pairs_opaque, m_opaque = run_pairs ~outer:eoutr ~inner:dinner ~inner_suchthat:opaque_boss () in
  table ~title:"join strategies (same query, before/after analyze)"
    ~header:[ "query"; "strategy"; "pairs"; "time"; "pairs/s" ]
    [
      [ "works==dname (opaque: forced rescan)"; strategy_name jp_scan; fint pairs_nested;
        fsec m_nested.seconds; fops (ops_per_sec m_nested pairs_nested) ];
      [ "works==dname (cold: probe per row)"; strategy_name jp_cold; fint pairs_inl;
        fsec m_inl.seconds; fops (ops_per_sec m_inl pairs_inl) ];
      [ "works==dname (analyzed)"; strategy_name jp_hot; fint pairs_hash; fsec m_hash.seconds;
        fops (ops_per_sec m_hash pairs_hash) ];
      [ "d == e.boss"; strategy_name jp_deref; fint pairs_deref; fsec m_deref.seconds;
        fops (ops_per_sec m_deref pairs_deref) ];
      [ "e.boss == d || ... (opaque)"; strategy_name jp_opaque; fint pairs_opaque;
        fsec m_opaque.seconds; fops (ops_per_sec m_opaque pairs_opaque) ];
    ];
  (* Estimate honesty: predicted join cardinality and cost ratios vs what
     actually happened. [j_nested_cost] of the analyzed plan prices the
     index-nested-loop it rejected; the opaque plan's own cost prices the
     full rescan. *)
  let predicted = jp_hot.Ode.Planner.j_rows in
  let hash_cost = max 1e-9 jp_hot.Ode.Planner.j_cost in
  let cost_ratio_inl = jp_hot.Ode.Planner.j_nested_cost /. hash_cost in
  let time_ratio_inl = m_inl.seconds /. max 1e-9 m_hash.seconds in
  let cost_ratio = jp_scan.Ode.Planner.j_cost /. hash_cost in
  let time_ratio = m_nested.seconds /. max 1e-9 m_hash.seconds in
  table ~title:"predicted vs measured (hash join, post-analyze)"
    ~header:[ "quantity"; "predicted"; "measured" ]
    [
      [ "join pairs"; Printf.sprintf "%.0f" predicted; fint pairs_hash ];
      [ "hash vs index-nested-loop"; Printf.sprintf "%.1fx (cost)" cost_ratio_inl;
        Printf.sprintf "%.1fx (time)" time_ratio_inl ];
      [ "hash vs nested rescan"; Printf.sprintf "%.1fx (cost)" cost_ratio;
        Printf.sprintf "%.1fx (time)" time_ratio ];
    ];
  (* Correctness first: every strategy must emit the same pair set size. *)
  guard "E25.pairs_agree" ~lo:(float pairs_nested) ~hi:(float pairs_nested) (float pairs_hash);
  guard "E25.inl_pairs_agree" ~lo:(float pairs_nested) ~hi:(float pairs_nested)
    (float pairs_inl);
  guard "E25.deref_pairs_agree" ~lo:(float pairs_opaque) ~hi:(float pairs_opaque)
    (float pairs_deref);
  guard "E25.hash_selected" ~lo:1.0
    (match jp_hot.Ode.Planner.j_strategy with Ode.Planner.Hash_join _ -> 1.0 | _ -> 0.0);
  guard "E25.deref_selected" ~lo:1.0
    (match jp_deref.Ode.Planner.j_strategy with Ode.Planner.Fused_deref _ -> 1.0 | _ -> 0.0);
  (* Estimate honesty, within 2x either way at any scale: with the works
     index analyzed, the histogram's distinct count makes the equi-join
     selectivity 1/distinct — the prediction should land on the nose. *)
  let card_err = predicted /. max 1.0 (float pairs_hash) in
  guard "E25.cardinality_ratio" ~lo:0.5 ~hi:2.0 card_err;
  (if scale >= 1.0 then guard "E25.hash_join_speedup" ~lo:2.0 time_ratio
   else metric "E25.hash_join_speedup" time_ratio);
  let deref_speedup = m_opaque.seconds /. max 1e-9 m_deref.seconds in
  (if scale >= 1.0 then guard "E25.deref_fusion_speedup" ~lo:2.0 deref_speedup
   else metric "E25.deref_fusion_speedup" deref_speedup);
  metric "E25.inl_pairs_per_sec" (ops_per_sec m_inl pairs_inl);
  metric "E25.nested_pairs_per_sec" (ops_per_sec m_nested pairs_nested);
  metric "E25.hash_pairs_per_sec" (ops_per_sec m_hash pairs_hash);
  metric "E25.deref_pairs_per_sec" (ops_per_sec m_deref pairs_deref);
  metric "E25.predicted_pairs" predicted;
  metric "E25.measured_pairs" (float pairs_hash);
  metric "E25.predicted_cost_ratio" cost_ratio;
  metric "E25.measured_time_ratio" time_ratio;
  metric "E25.predicted_cost_ratio_inl" cost_ratio_inl;
  metric "E25.measured_time_ratio_inl" time_ratio_inl;
  note "the same forall-in-forall switches from nested loop to hash join";
  note "once analyze gives the planner cardinalities and per-index";
  note "histograms; d == e.boss fuses to a pointer dereference with no";
  note "inner scan in either mode. Estimated rows come from the equi-depth";
  note "histogram on the analyzed extent.";
  Db.close db

let all : (string * (unit -> unit)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17);
    ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21); ("E22", e22);
    ("E23", e23); ("E24", e24); ("E25", e25);
  ]
