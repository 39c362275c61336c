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

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Every on-disk store an experiment makes, with the process that made it,
   which alone removes it at exit. *)
let made = ref []

let () =
  at_exit (fun () ->
      let me = Unix.getpid () in
      List.iter
        (fun (pid, d) -> if pid = me then try if Sys.file_exists d then rm_rf d with Sys_error _ -> ())
        !made)

(* A fresh store directory under the system temp dir, gone at exit. *)
let bench_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ode-bench-%s-%d-%f" name (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  made := (Unix.getpid (), d) :: !made;
  d

let disk_db prefix = Db.open_ (bench_dir prefix)

let pred fmt = Printf.ksprintf Parser.expr fmt

let access_name (p : Ode.Planner.plan) =
  match p.p_access with
  | Full_scan -> "full scan"
  | Index_eq _ -> "index probe"
  | Index_range _ -> "index range"

(* The join strategy the planner picks for [st] as the inner [suchthat],
   named for a table cell. A nested loop replans its inner side per outer
   row, so it also names that access, planned for the first outer object. *)
let join_strategy db ~outer:((ovar, ocls, odeep) as outer) ~inner:((ivar, icls, ideep) as inner) st =
  match (Ode.Planner.plan_join db ~outer ~inner ~inner_suchthat:st ()).j_strategy with
  | Nested_loop ->
      let env =
        match Query.to_list db ~var:ovar ~cls:ocls ~deep:odeep () with
        | o :: _ -> [ (ovar, Value.Ref o) ]
        | [] -> []
      in
      "nested loop, inner "
      ^ access_name (Ode.Planner.plan db ~env ~var:ivar ~cls:icls ~deep:ideep ~suchthat:(Some st) ())
  | Fused_deref f -> "deref " ^ f
  | Fused_member f -> "member " ^ f
  | Hash_join _ -> "hash join"

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
        let plan = Ode.Planner.plan db ~var:"x" ~cls:"row" ~deep:false ~suchthat:(Some q) () in
        let count = ref 0 in
        let _, m =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  Query.run db ~txn ~var:"x" ~cls:"row" ~suchthat:q (fun _ -> incr count)))
        in
        (sel, !count, m, access_name plan))
      [ 0.0001; 0.001; 0.01; 0.1; 0.5 ]
  in
  let scans = run_query () in
  (* The planner prices the range from the index's histogram, so it can
     tell where the range stops paying and keep the full scan there. *)
  Db.create_index db ~cls:"row" ~field:"k";
  ignore (Db.analyze db);
  let probes = run_query () in
  let rows =
    List.map2
      (fun (sel, c1, ms, _) (_, c2, mi, plan) ->
        assert (c1 = c2);
        [
          Printf.sprintf "%.4f" sel;
          fint c1;
          fsec ms.seconds;
          fsec mi.seconds;
          plan;
          ffloat (ms.seconds /. (mi.seconds +. 1e-9));
          fint (Stats.get mi.stats "objects_scanned");
        ])
      scans probes
  in
  Db.close db;
  table
    ~title:(Printf.sprintf "E3: selectivity sweep over %d rows" n)
    ~header:
      [ "selectivity"; "rows out"; "no index"; "indexed"; "indexed plan"; "speedup"; "scanned" ]
    rows;
  note "the index wins by orders of magnitude at low selectivity and the";
  note "advantage shrinks as the range covers more of the cluster; past the";
  note "crossover the planner keeps the full scan."

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
      let outer = ("s", "supplier", false) and inner = ("i", "stockitem", false) in
      let join what st =
        let strategy = join_strategy db ~outer ~inner st in
        let c = ref 0 in
        let _, m =
          timed (fun () ->
              Db.with_txn db (fun txn ->
                  Query.run_join db ~txn ~outer ~inner ~inner_suchthat:st (fun _ _ -> incr c)))
        in
        (what, strategy, !c, m)
      in
      (* The link hidden in a disjunction: no fused strategy and no
         sargable conjunct, so every outer row rescans the items. *)
      let rescan = join "i.supid == s.sid || 1 == 2" (pred "i.supid == s.sid || 1 == 2") in
      Db.create_index db ~cls:"stockitem" ~field:"supid";
      ignore (Db.analyze db);
      (* [s.sid + 0] hides the link from the join planner but is constant
         per outer row: a nested loop whose inner forall is one probe. *)
      let probed = join "i.supid == s.sid + 0" (pred "i.supid == s.sid + 0") in
      let picked = join "i.supid == s.sid" (pred "i.supid == s.sid") in
      let _, _, c_nl, m_nl = rescan in
      List.iter
        (fun (what, strategy, c, m) ->
          assert (c = c_nl);
          rows :=
            [
              Printf.sprintf "%d sup x %d items" s n;
              what;
              strategy;
              fint c;
              fsec m.seconds;
              ffloat (m_nl.seconds /. (m.seconds +. 1e-9));
            ]
            :: !rows)
        [ rescan; probed; picked ];
      Db.close db)
    [ (10, 2_000); (20, 8_000); (40, 16_000) ];
  table ~title:"E5: equi-join supplier x stockitem"
    ~header:[ "workload"; "inner suchthat"; "strategy that ran"; "pairs"; "time"; "vs rescan" ]
    (List.rev !rows);
  note "with the index, the inner forall becomes one probe per outer row:";
  note "the join cost drops from O(S*N) to O(S + pairs). The plain link is";
  note "the planner's own pick, priced against both."

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
      let evaluated = float (Stats.get m_quiet.stats "triggers_evaluated") /. float updates in
      let fired = Stats.get m_fire.stats "triggers_fired" in
      rows :=
        [
          fint m_triggers;
          Printf.sprintf "%.1fµs" (per_op m_quiet updates);
          Printf.sprintf "%.2f" evaluated;
          fsec m_fire.seconds;
          fint fired;
        ]
        :: !rows;
      (* Exact, unlike the timings: a quiet commit evaluates the condition
         of the touched object's one activation and no other, whatever the
         number of activations, and the firing commit fires just that one. *)
      let expect = float (min m_triggers 1) in
      guard (Printf.sprintf "E9.conditions_per_quiet_commit_m%d" m_triggers) ~lo:expect ~hi:expect
        evaluated;
      guard (Printf.sprintf "E9.fired_m%d" m_triggers) ~lo:expect ~hi:expect (float fired);
      Db.close db)
    [ 0; 10; 100; 1_000 ];
  table ~title:"E9: per-commit trigger evaluation (only touched objects are checked)"
    ~header:[ "active triggers"; "quiet commit"; "conditions/commit"; "firing commit"; "fired" ]
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
        let dir = bench_dir (Printf.sprintf "rec-%d" txns) in
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
      let keys = Array.init n (fun i -> Ode_util.Key.of_nat i) in
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
            B.iter_range t ~lo:(Ode_util.Key.of_nat (n / 2)) ~hi:(Ode_util.Key.of_nat (n / 2 + 1000))
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

(* ------------------------------------------------------------------ E15 *)
(* Crash recovery: reopening after simulated process death replays the
   committed WAL tail. How does recovery time scale with the WAL size, and
   what does the auto-checkpoint threshold therefore buy? *)

let e15 () =
  section "E15  recovery time vs WAL size (crash + replay)";
  let rows = ref [] in
  List.iter
    (fun txns ->
      let dir = bench_dir (Printf.sprintf "e15-%d" txns) in
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
    ~header:[ "txns"; "wal"; "recovery"; "commits replayed"; "commits/s" ]
    (List.rev !rows);
  note "recovery is linear in the WAL tail: replay re-applies every";
  note "commit since the last checkpoint, then flushes and resets the";
  note "log. The auto-checkpoint threshold (default 8MB) caps this tail, so";
  note "it directly bounds worst-case reopen time after a crash."

(* ------------------------------------------------------------------ E16 *)
(* Compiled predicates read in place: a non-sargable predicate scan
   compiles its predicate once and reads the three slots it needs from
   each candidate's fetched record. The baseline is the read path the
   engine had without its decoded-object cache: the predicate interpreted
   per candidate, each field reference fetching the object's record and
   decoding it whole. A third variant decodes each record whole once and
   interprets the predicate over the decoded fields. *)

let e16 () =
  section "E16  compiled in-place reads vs decode-everything: predicate scan";
  let n = scaled 20_000 in
  (* The load runs with a pool smaller than the data, like the other
     experiments' stores. *)
  let pool_pages = max 64 (scaled 512) in
  let dir = bench_dir "e16" in
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
     extent and reads every candidate. *)
  let q = pred "x.a + x.b > x.c" in
  let compiled db () = Query.count db ~var:"x" ~cls:"m" ~suchthat:q () in
  let interpret db get_field () =
    let hooks = { Ode_model.Eval.null_hooks with get_field } in
    let hits = ref 0 in
    Query.run db ~var:"x" ~cls:"m" (fun oid ->
        match Ode_model.Eval.eval hooks ~vars:[ ("x", Value.Ref oid) ] ~this:None q with
        | Value.Bool true -> incr hits
        | _ -> ());
    !hits
  in
  let per_access db =
    interpret db (fun oid f -> Option.bind (Ode.Store.get_fields db None oid) (List.assoc_opt f))
  in
  let decode_once db () =
    let cls = Ode_model.Catalog.find_exn db.Ode.Types.catalog "m" in
    let hits = ref 0 in
    Ode.Kv.iter_prefix db (Ode.Keys.header_prefix_class cls.id) (fun key payload ->
        let oid = Ode.Keys.oid_of_header_key key in
        let _, slots = Ode.Store.decode_object db oid payload in
        let fields = Ode.Store.named_fields db oid slots in
        let hooks =
          { Ode_model.Eval.null_hooks with get_field = (fun _ f -> List.assoc_opt f fields) }
        in
        (match Ode_model.Eval.eval hooks ~vars:[ ("x", Value.Ref oid) ] ~this:None q with
        | Value.Bool true -> incr hits
        | _ -> ());
        true);
    !hits
  in
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
  (* One open with a pool that holds every page of the store, primed by a
     run of each variant, so the measured runs read no page from disk:
     the comparison isolates reading three slots in place against decoding
     whole records, not disk or pool misses (guarded below). *)
  let pool_pages =
    Array.fold_left
      (fun acc f -> acc + ((Unix.stat (Filename.concat dir f)).Unix.st_size / Ode_storage.Page.size) + 1)
      0 (Sys.readdir dir)
  in
  let db = Db.open_ ~pool_pages dir in
  let r0 = compiled db () in
  if per_access db () <> r0 || decode_once db () <> r0 then
    failwith "E16: count mismatch across variants";
  let measure f = best (fun () -> if f () <> r0 then failwith "E16: count drift") in
  let m_access = measure (per_access db) in
  let m_once = measure (decode_once db) in
  let m_compiled = measure (compiled db) in
  Db.close db;
  let cell m =
    [
      fsec m.seconds;
      fint (Stats.get m.stats "objects_fetched");
      fint (Stats.get m.stats "pool_misses");
    ]
  in
  table
    ~title:(Printf.sprintf "E16: scan of %d objects, non-sargable 3-field predicate" n)
    ~header:[ "variant"; "time"; "fetched"; "pool misses" ]
    [
      "decode per field access" :: cell m_access;
      "decode once per record" :: cell m_once;
      "compiled, in place" :: cell m_compiled;
    ];
  let ratio m = m.seconds /. max 1e-9 m_compiled.seconds in
  guard "E16.pool_misses" ~hi:0.0
    (float
       (List.fold_left (fun a m -> a + Stats.get m.stats "pool_misses") 0
          [ m_access; m_once; m_compiled ]));
  (* 5.8-6.9 at BENCH_SCALE 1 and 6.0-6.7 at 0.1 on a 2-core x86-64 host. *)
  guard "E16.decode_speedup" ~lo:1.5 (ratio m_access);
  metric "E16.decode_once_ratio" (ratio m_once);
  metric "E16.compiled_fetched" (float (Stats.get m_compiled.stats "objects_fetched"));
  note "the compiled scan fetches each record once and reads the three";
  note "slots its predicate names. Against one whole decode per record it";
  note "saves less: copying each 1 KiB record out of its heap page, which";
  note "both pay, is most of a candidate's cost here."

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
(* Observability cost on a hot scan: histograms are always on, so the
   guard counts what they add to each scan, the samples every histogram
   together records, which must stay one (query.execute) whatever the
   extent's size: no histogram sits on a per-candidate path. The tracer
   is off by default, a flag check per emit point; the traced variant's
   time against the default's is reported (spans allocate and timestamp)
   but not guarded. Side products: a sample Chrome trace and a histogram
   dump, uploaded as CI artifacts. *)

let e18 () =
  section "E18  histogram samples and tracing overhead on a hot scan";
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
  (* Calibrate so a round is ~75ms of scans. *)
  let _, m_once = timed (fun () -> ignore (scan ())) in
  let reps = max 3 (min 150 (int_of_float (0.075 /. max 1e-6 m_once.seconds))) in
  let timed_scan () =
    let t0 = now () in
    if scan () <> expected then failwith "E18: count drift";
    now () -. t0
  in
  let round () =
    Gc.full_major ();
    let t = ref 0.0 in
    for _ = 1 to reps do
      t := !t +. timed_scan ()
    done;
    !t
  in
  let samples () = List.fold_left (fun a h -> a + H.count h) 0 (H.all ()) in
  let s0 = samples () in
  let rounds = 5 in
  let t_default = List.fold_left min Float.max_float (List.init rounds (fun _ -> round ())) in
  let per_scan = float (samples () - s0) /. float (rounds * reps) in
  T.set_enabled true;
  T.clear ();
  let t_traced = round () in
  T.dump "BENCH_trace_sample.json";
  let oc = open_out "BENCH_metrics.txt" in
  output_string oc (H.summary ());
  close_out oc;
  (* Restore process defaults: tracer off and empty. *)
  T.set_enabled false;
  T.clear ();
  let row name s = [ name; fsec s; Printf.sprintf "%.1fµs" (s /. float reps *. 1e6) ] in
  table
    ~title:(Printf.sprintf "E18: %d-object scan, %d reps/round, best of %d rounds" n reps rounds)
    ~header:[ "variant"; "time"; "per scan" ]
    [ row "default (trace off)" t_default; row "traced (trace on)" t_traced ];
  guard "E18.histogram_samples_per_scan" ~lo:1.0 ~hi:1.0 per_scan;
  metric "E18.tracing_overhead" (t_traced /. max 1e-9 t_default);
  Db.close db;
  note "histograms record one sample per scan, at its boundary; the tracer";
  note "costs one flag check per emit point when off;";
  note "wrote BENCH_trace_sample.json (chrome://tracing) and BENCH_metrics.txt."

(* ----------------------------------------------------------------- E25 *)
(* The cost-based optimizer: a two-extent equi-join is priced against the
   nested loop, from default selectivities before [analyze] and from the
   histograms after it, and a ref-equality join fuses into pointer
   dereferences with no inner scan at all. The nested-loop baselines hide
   the link from the join planner. Predicted rows/costs from the plan are
   recorded next to the measured values so EXPERIMENTS.md can show how
   honest the estimates are. *)

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
  (* Without statistics the equi-join is priced from default
     selectivities and a default extent size. *)
  let s_cold = join_strategy db ~outer ~inner works_eq in
  let pairs_cold, m_cold = run_pairs ~outer ~inner ~inner_suchthat:works_eq () in
  (* The index nested loop: [d.dname + ""] hides the link from the join
     planner but is constant per outer row, so each outer row's inner
     forall is replanned as a probe of the works index. *)
  let hidden_works = pred "e.works == d.dname + \"\"" in
  let s_inl = join_strategy db ~outer ~inner hidden_works in
  let pairs_inl, m_inl = run_pairs ~outer ~inner ~inner_suchthat:hidden_works () in
  (* The true nested-loop floor: the same predicate hidden inside a
     disjunction neither the link detector nor the sarg extractor can see
     through, so every outer row rescans the whole inner extent. *)
  let opaque_works = pred "e.works == d.dname || 1 == 2" in
  let jp_scan = Ode.Planner.plan_join db ~outer ~inner ~inner_suchthat:opaque_works () in
  let s_scan = join_strategy db ~outer ~inner opaque_works in
  let pairs_nested, m_nested = run_pairs ~outer ~inner ~inner_suchthat:opaque_works () in
  (* After analyze the same query is priced from the histograms. *)
  ignore (Db.analyze db);
  let jp_hot = Ode.Planner.plan_join db ~outer ~inner ~inner_suchthat:works_eq () in
  let s_hot = join_strategy db ~outer ~inner works_eq in
  let pairs_hash, m_hash = run_pairs ~outer ~inner ~inner_suchthat:works_eq () in
  (* The ref-equality join fuses into a dereference per outer row; its
     nested-loop baseline is the same join with fusion defeated by an
     equivalent but unrecognizable predicate shape. *)
  let eoutr = ("e", "emp25", false) and dinner = ("d", "dept25", false) in
  let jp_deref = Ode.Planner.plan_join db ~outer:eoutr ~inner:dinner ~inner_suchthat:boss_eq () in
  let s_deref = join_strategy db ~outer:eoutr ~inner:dinner boss_eq in
  let pairs_deref, m_deref = run_pairs ~outer:eoutr ~inner:dinner ~inner_suchthat:boss_eq () in
  (* Same result set, but hidden inside a disjunction the link detector
     cannot (and should not) see through — the honest nested baseline. *)
  let opaque_boss = pred "e.boss == d || 1 == 2" in
  let s_opaque = join_strategy db ~outer:eoutr ~inner:dinner opaque_boss in
  let pairs_opaque, m_opaque = run_pairs ~outer:eoutr ~inner:dinner ~inner_suchthat:opaque_boss () in
  let row what strategy pairs m =
    [ what; strategy; fint pairs; fsec m.seconds; fops (ops_per_sec m pairs) ]
  in
  table ~title:"join strategies (each row names the strategy that ran)"
    ~header:[ "query"; "strategy"; "pairs"; "time"; "pairs/s" ]
    [
      row "works==dname || 1==2 (opaque)" s_scan pairs_nested m_nested;
      row "works==dname+\"\" (link hidden)" s_inl pairs_inl m_inl;
      row "works==dname (no statistics)" s_cold pairs_cold m_cold;
      row "works==dname (analyzed)" s_hot pairs_hash m_hash;
      row "d == e.boss" s_deref pairs_deref m_deref;
      row "e.boss == d || 1==2 (opaque)" s_opaque pairs_opaque m_opaque;
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
  guard "E25.cold_pairs_agree" ~lo:(float pairs_nested) ~hi:(float pairs_nested)
    (float pairs_cold);
  guard "E25.deref_pairs_agree" ~lo:(float pairs_opaque) ~hi:(float pairs_opaque)
    (float pairs_deref);
  guard "E25.hash_selected" ~lo:1.0
    (match jp_hot.Ode.Planner.j_strategy with Ode.Planner.Hash_join _ -> 1.0 | _ -> 0.0);
  guard "E25.deref_selected" ~lo:1.0
    (match jp_deref.Ode.Planner.j_strategy with Ode.Planner.Fused_deref _ -> 1.0 | _ -> 0.0);
  guard "E25.inl_selected" ~lo:1.0
    (if s_inl = "nested loop, inner index probe" then 1.0 else 0.0);
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
  note "the equi-join is priced as a hash join from default selectivities";
  note "and again from the histograms after analyze, which make its row";
  note "estimate exact; d == e.boss fuses to a pointer dereference with no";
  note "inner scan either way. The nested-loop rows hide the link: behind";
  note "+\"\" the inner side is an index probe per outer row, behind || 1==2";
  note "a full rescan.";
  Db.close db

(* ----------------------------------------------------------------- E26 *)
(* §5: a database never holds a state that breaks its schema, and
   [Verify.run] is the offline check of that. It reads each page once:
   one walk per tree, the structural check's, which hands each leaf entry
   to the record checks, and one read of each heap record, with no
   per-object index probe and no object fetched through [Store]. *)
let e26 () =
  section "E26  integrity check: each page read once, no store fetch";
  let n = scaled 20_000 in
  let db = mem_db () in
  ignore (Db.define db "class v { k: int; pad: string; };");
  Db.create_cluster db "v";
  Db.create_index db ~cls:"v" ~field:"k";
  let rng = Prng.create 26 in
  let made = ref 0 in
  while !made < n do
    let batch = min 2_000 (n - !made) in
    Db.with_txn db (fun txn ->
        for i = 1 to batch do
          (* Half the rows inline in the directory leaf, half in the heap. *)
          let pad = String.make (if i mod 2 = 0 then 16 else 200) 'x' in
          ignore (Db.pnew txn "v" [ ("k", Int (Prng.int rng n)); ("pad", Str pad) ])
        done);
    made := !made + batch
  done;
  (* What the check keeps past a minor collection: a bit per object, not
     a table entry. *)
  Gc.minor ();
  let _, promoted0, _ = Gc.counters () in
  (* Pages are never freed, so every page but a tree's header is a node. *)
  let nodes tree = Ode_index.Bptree.page_count tree - 1 in
  let one_read = nodes db.kv_dir + nodes db.idx + Ode_storage.Heap.record_count db.kv_heap in
  let verdict, m = timed (fun () -> Ode.Verify.run db) in
  Gc.minor ();
  let _, promoted1, _ = Gc.counters () in
  (match verdict with
  | Ok () -> ()
  | Error ps -> failwith ("E26: verify found problems: " ^ String.concat "; " ps));
  let get = Stats.get m.stats in
  let promoted = (promoted1 -. promoted0) /. float n in
  let pins = get "pool_hits" + get "pool_misses" in
  table
    ~title:(Printf.sprintf "E26: Verify.run over %d objects, one index" n)
    ~header:
      [ "time"; "µs/object"; "page pins"; "nodes + heap records"; "store fetches"; "promoted words/object" ]
    [
      [
        fsec m.seconds;
        ffloat (m.seconds *. 1e6 /. float n);
        fint pins;
        fint one_read;
        fint (get "objects_fetched");
        ffloat promoted;
      ];
    ];
  guard "E26.pins_beyond_one_read" ~lo:0.0 ~hi:0.0 (float (pins - one_read));
  guard "E26.objects_fetched" ~hi:0.0 (float (get "objects_fetched"));
  metric "E26.verify_us_per_object" (m.seconds *. 1e6 /. float n);
  metric "E26.promoted_words_per_object" promoted;
  note "one pin per tree node and per heap record: the structural walk";
  note "of each tree hands every leaf entry to the record checks, so every";
  note "record is fetched and decoded once, and index coverage is checked";
  note "from the decoded slots, as sums of key fingerprints, not by probing";
  note "the store per object or keeping a table of the objects.";
  Db.close db

let all : (string * (unit -> unit)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E15", e15); ("E16", e16); ("E17", e17); ("E18", e18);
    ("E25", e25); ("E26", e26);
  ]
