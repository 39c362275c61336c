(* query-hot: one embedded caller runs eight O++ query templates with random
   constants through Shell, over a university plus inventory database of
   about 1,500 objects that fits the default buffer pools and object cache.
   Parsing, planning and execution do nearly all the work; storage is idle
   and the WAL writes nothing. *)

module Db = Ode.Database
module Prng = Ode_util.Prng
module Stats = Ode_util.Stats
module Ast = Ode_lang.Ast
module Value = Ode_model.Value

let schema =
  {|
  class person { name: string; age: int; income: int; };
  class student : person { gpa: float; };
  class faculty : person { salary: int; };
  class stockitem { name: string; qty: int; price: int; supid: int; };
  class supplier { sname: string; city: string; sid: int; items: set<ref stockitem>; };
  |}

type person = { name : string; age : int; income : int }
type item = { iname : string; qty : int; price : int; supid : int }

type model = {
  persons : person array;  (** the person cluster alone *)
  everyone : person array;  (** person, student and faculty: what person* visits *)
  items : item array;
  nsup : int;
  user_bytes : int;
}

let sname sid = Printf.sprintf "sup-%03d" sid

(* [n] values evenly spread over [lo, hi), dealt out in a seeded order.
   Every seed gives the same histograms, so the same plans and the same
   work per query; the seed decides which object holds which value. *)
let dealt rng n ~lo ~hi =
  let a = Array.init n (fun i -> lo + (i * (hi - lo) / n)) in
  Prng.shuffle rng a;
  a

let load db rng ~per_class ~nitems ~nsup =
  ignore (Db.define db schema);
  List.iter (Db.create_cluster db) [ "person"; "student"; "faculty"; "stockitem"; "supplier" ];
  let user_bytes = ref 0 in
  let pnew txn cls fields =
    user_bytes := !user_bytes + String.length (Value.fields_encode fields);
    Db.pnew txn cls fields
  in
  let everyone = ref [] and persons = ref [] in
  let cluster txn cls extra =
    let ages = dealt rng per_class ~lo:18 ~hi:78 in
    let incomes = dealt rng per_class ~lo:0 ~hi:10_000 in
    for i = 0 to per_class - 1 do
      let name = Printf.sprintf "%s%05d" (String.sub cls 0 1) i in
      let p = { name; age = ages.(i); income = incomes.(i) } in
      let fields = [ ("name", Value.Str p.name); ("age", Int p.age); ("income", Int p.income) ] in
      ignore (pnew txn cls (fields @ extra rng));
      everyone := p :: !everyone;
      if cls = "person" then persons := p :: !persons
    done
  in
  Db.with_txn db (fun txn ->
      cluster txn "person" (fun _ -> []);
      cluster txn "student" (fun rng -> [ ("gpa", Value.Float (Prng.float rng 4.)) ]);
      cluster txn "faculty" (fun rng -> [ ("salary", Value.Int (Prng.int rng 9000)) ]));
  let qtys = dealt rng nitems ~lo:0 ~hi:10_000 in
  let prices = dealt rng nitems ~lo:0 ~hi:100_000 in
  let supids = dealt rng nitems ~lo:0 ~hi:nsup in
  let items =
    Array.init nitems (fun i ->
        let iname = Printf.sprintf "item-%05d" i in
        { iname; qty = qtys.(i); price = prices.(i); supid = supids.(i) })
  in
  let oids =
    Db.with_txn db (fun txn ->
        Array.map
          (fun it ->
            pnew txn "stockitem"
              [ ("name", Str it.iname); ("qty", Int it.qty); ("price", Int it.price);
                ("supid", Int it.supid) ])
          items)
  in
  Db.with_txn db (fun txn ->
      for sid = 0 to nsup - 1 do
        let mine = ref [] in
        Array.iteri (fun i it -> if it.supid = sid then mine := Value.Ref oids.(i) :: !mine) items;
        let city = Prng.string rng 8 in
        ignore
          (pnew txn "supplier"
             [ ("sname", Str (sname sid)); ("city", Str city); ("sid", Int sid);
               ("items", Value.set_of_list !mine) ])
      done);
  Db.create_index db ~cls:"person" ~field:"age";
  Db.create_index db ~cls:"stockitem" ~field:"supid";
  ignore (Db.analyze db);
  {
    persons = Array.of_list (List.rev !persons);
    everyone = Array.of_list (List.rev !everyone);
    items;
    nsup;
    user_bytes = !user_bytes;
  }

(* What a template's printed output must be. [Sorted] lines must come in
   order of their leading integer (ties in any order). [rows] is how many
   objects qualify, for the planner's q-error. *)
type order = Any | Sorted of [ `Asc | `Desc ]
type query = { src : string; expect : string list; order : order; rows : int }

let select a f = Array.to_list a |> List.filter_map f
let query ?(order = Any) src expect = { src; expect; order; rows = List.length expect }

let templates : (string * (Prng.t -> model -> query)) list =
  [
    ( "eq_probe",
      fun rng m ->
        let c = Prng.int rng m.nsup in
        query
          (Printf.sprintf "forall i in stockitem suchthat i.supid == %d { print i.name; }" c)
          (select m.items (fun i -> if i.supid = c then Some i.iname else None)) );
    ( "range_residual",
      fun rng m ->
        let a = 18 + Prng.int rng 56 in
        let inc = Prng.int rng 10_000 in
        query
          (Printf.sprintf
             "forall p in person suchthat p.age >= %d && p.age < %d && p.income > %d \
              { print p.name; }"
             a (a + 5) inc)
          (select m.persons (fun p ->
               if p.age >= a && p.age < a + 5 && p.income > inc then Some p.name else None)) );
    ( "scan_residual",
      fun rng m ->
        let pr = 80_000 + Prng.int rng 20_000 in
        let q = Prng.int rng 5_000 in
        query
          (Printf.sprintf
             "forall i in stockitem suchthat i.price > %d && i.qty < %d { print i.name; }" pr q)
          (select m.items (fun i -> if i.price > pr && i.qty < q then Some i.iname else None)) );
    ( "deep_agg",
      fun rng m ->
        let a = 18 + Prng.int rng 60 in
        let n, s =
          Array.fold_left
            (fun (n, s) p -> if p.age > a then (n + 1, s + p.income) else (n, s))
            (0, 0) m.everyone
        in
        {
          src =
            Printf.sprintf
              "n := 0; s := 0; forall p in person* suchthat p.age > %d { n := n + 1; \
               s := s + p.income; } print n, s;"
              a;
          expect = [ Printf.sprintf "%d %d" n s ];
          order = Any;
          rows = n;
        } );
    ( "by_index",
      fun rng m ->
        let a = 18 + Prng.int rng 57 in
        query ~order:(Sorted `Asc)
          (Printf.sprintf
             "forall p in person suchthat p.age >= %d && p.age <= %d by p.age \
              { print p.age, p.name; }"
             a (a + 3))
          (select m.persons (fun p ->
               if p.age >= a && p.age <= a + 3 then Some (Printf.sprintf "%d %s" p.age p.name)
               else None)) );
    ( "by_sort",
      fun rng m ->
        let s = 1 + Prng.int rng (max 1 (m.nsup / 10)) in
        query ~order:(Sorted `Desc)
          (Printf.sprintf
             "forall i in stockitem suchthat i.supid < %d by i.price desc \
              { print i.price, i.name; }"
             s)
          (select m.items (fun i ->
               if i.supid < s then Some (Printf.sprintf "%d %s" i.price i.iname) else None)) );
    ( "hash_join",
      fun rng m ->
        let q = Prng.int rng 500 in
        query
          (Printf.sprintf
             "forall i in stockitem suchthat i.qty < %d { forall s in supplier \
              suchthat s.sid == i.supid { print s.sname, i.name; } }"
             q)
          (select m.items (fun i ->
               if i.qty < q then Some (sname i.supid ^ " " ^ i.iname) else None)) );
    ( "member_join",
      fun rng m ->
        let k = 1 + Prng.int rng 3 in
        let q = Prng.int rng 10_000 in
        query
          (Printf.sprintf
             "forall s in supplier suchthat s.sid < %d { forall i in stockitem \
              suchthat i in s.items && i.qty > %d { print s.sname, i.name; } }"
             k q)
          (select m.items (fun i ->
               if i.supid < k && i.qty > q then Some (sname i.supid ^ " " ^ i.iname) else None)) );
  ]

let template_names = List.map fst templates
let per_template_absent = List.map (fun n -> ("stage.execute_us." ^ n, "us")) template_names
let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let leading_int l =
  match String.index_opt l ' ' with Some i -> int_of_string (String.sub l 0 i) | None -> 0

let rec monotone dir = function
  | a :: (b :: _ as rest) ->
      let c = compare (leading_int a) (leading_int b) in
      (if dir = `Asc then c <= 0 else c >= 0) && monotone dir rest
  | _ -> true

let matches q got =
  List.sort compare got = List.sort compare q.expect
  && match q.order with Any -> true | Sorted dir -> monotone dir got

(* The traced run's plan-only pass: plan the query's forall the way the
   shell would (a two-loop forall as a join) and compare the estimate with
   the oracle's row count. Returns the q-error. *)
let plan_only db trace q =
  let rec first_forall = function
    | Ast.TStmt (SForall f) :: _ -> Some f
    | _ :: rest -> first_forall rest
    | [] -> None
  in
  match first_forall (Ode_lang.Parser.program q.src) with
  | None -> None
  | Some f ->
      let plan txn =
        match f.q_body with
        | [ SForall g ] when f.q_by = None && g.q_by = None ->
            (Ode.Planner.plan_join db ~txn ~outer:(f.q_var, f.q_cls, f.q_deep)
               ~inner:(g.q_var, g.q_cls, g.q_deep) ?outer_suchthat:f.q_suchthat
               ?inner_suchthat:g.q_suchthat ())
              .j_rows
        | _ ->
            (Ode.Planner.plan db ~txn ~var:f.q_var ~cls:f.q_cls ~deep:f.q_deep
               ~suchthat:f.q_suchthat ())
              .p_est.est_out
      in
      let est =
        Db.with_read_txn db (fun txn -> Spans.with_span trace "stage.plan" (fun () -> plan txn))
      in
      Some (Ctx.qerror ~est ~actual:q.rows)

let run (t : Ctx.t) =
  let per_class = Ctx.scaled t 300 and nitems = Ctx.scaled t 500 in
  let nsup = Ctx.scaled t ~floor:4 50 in
  let dir = Filename.concat t.dir "db" in
  let db, m =
    Ctx.repeat_setup t ~reps:7
      (fun () ->
        let db = Db.open_ dir in
        (db, load db (Prng.create t.seed) ~per_class ~nitems ~nsup))
      ~discard:(fun (db, _) ->
        Db.close db;
        Host.rm_rf dir)
  in
  let out = Buffer.create 4096 in
  let sh = Ode.Shell.create ~print:(Buffer.add_string out) db in
  let rng = Prng.create ((t.seed * 7919) + 1) in
  let kinds = List.map (fun n -> (n, Measure.samples ())) template_names in
  let trace = Spans.create 0 and split = Spans.split () in
  let planned = ref [] and traced_per_kind = Hashtbl.create 8 in
  let w = Measure.window ~budget:(Ctx.sequence t ~per_s:800. ()) ~seconds:t.seconds in
  let rows = ref 0 and ops = ref 0 in
  let op i ~measured =
    let name, gen = List.nth templates (Prng.int rng (List.length templates)) in
    let q = gen rng m in
    if measured then Spans.next_op split trace ~traced:t.traced !ops;
    Buffer.clear out;
    Ctx.attempt t;
    let start = Measure.now_ns () in
    match
      Spans.with_span trace ~op:i "op" (fun () ->
          let tops =
            Spans.with_span trace "stage.parse" (fun () -> Ode_lang.Parser.program q.src)
          in
          Spans.with_span trace ~tag:name "stage.execute" (fun () ->
              List.iter (Ode.Shell.exec_top sh) tops))
    with
    | exception e -> Ctx.fail t "%s: %s raised %s" name q.src (Printexc.to_string e)
    | () ->
        let stop = Measure.now_ns () in
        let q = if Ctx.corrupt_once t then { q with expect = "corrupted" :: q.expect } else q in
        let got = lines (Buffer.contents out) in
        Ctx.check t (matches q got) "%s: %s printed %d lines, the oracle expects %d" name q.src
          (List.length got) (List.length q.expect);
        if measured then begin
          Measure.add (List.assoc name kinds) ~at:stop (float_of_int (stop - start) /. 1e6);
          incr ops;
          rows := !rows + q.rows;
          if trace.on then begin
            planned := q :: !planned;
            let seen = Option.value ~default:0 (Hashtbl.find_opt traced_per_kind name) in
            Hashtbl.replace traced_per_kind name (seen + 1)
          end
        end
  in
  let i = ref 0 in
  while Measure.warming w !i do
    op !i ~measured:false;
    incr i
  done;
  let before = Stats.snapshot () and cpu0 = Host.cpu_s Host.self in
  let since = Measure.now_ns () in
  while Measure.measuring w ~since !i do
    op !i ~measured:true;
    incr i
  done;
  Spans.end_ops split trace;
  let until = Measure.now_ns () in
  t.elapsed_s <- Measure.secs_of_ns (until - since);
  let cpu = Host.cpu_s Host.self -. cpu0 in
  let get = Stats.get (Stats.diff (Stats.snapshot ()) before) in
  Ctx.latency t ~reads:kinds ~writes:[];
  Ctx.metric t "query_geomean_ms" "ms"
    (Measure.geomean
       (List.map (fun (_, s) -> Measure.percentile (Measure.sorted s) 0.5) kinds));
  Ctx.metric t "ops_per_s" "ops/s" (float_of_int !ops /. t.elapsed_s);
  Ctx.metric t "peak_rss_mb" "MiB" (Host.peak_rss_mib Host.self);
  Ctx.layer_counts t ~get ~ops:!ops ~commits:0 ~rows:!rows;
  (* One process: the engine's CPU is the load generator's. *)
  Ctx.metric t "server.cpu_us_per_op" "us" (Ctx.per (cpu *. 1e6) !ops);
  Ctx.metric t "loadgen.cpu_us_per_op" "us" (Ctx.per (cpu *. 1e6) !ops);
  Ctx.absent t
    [ ("recovery_s", "s"); ("server.outside_us", "us"); ("client.roundtrip_us", "us");
      ("storage.write_amp", "ratio"); ("recovery.replayed", "records");
      ("recovery.us_per_record", "us") ];
  if t.traced then begin
    trace.on <- true;
    let qerrs = List.filter_map (plan_only db trace) !planned in
    trace.on <- false;
    Ctx.qerror_metrics t qerrs;
    let traced_ops = Spans.traced_ops [ split ] in
    let self = Spans.self_ns [ trace ] in
    Ctx.stage_times t ~self_ns:self ~ops:traced_ops;
    List.iter
      (fun n ->
        Ctx.metric t ("stage.execute_us." ^ n) "us"
          (Ctx.per (float_of_int (self ("stage.execute." ^ n)) /. 1000.)
             (Option.value ~default:0 (Hashtbl.find_opt traced_per_kind n))))
      template_names;
    let execute_ns = Ctx.per (float_of_int (self "stage.execute")) traced_ops in
    let candidates = Ctx.ratio (get "objects_scanned") !ops in
    Ctx.ns_per_candidate t ~execute_ns ~candidates;
    Ctx.metric t "trace.overhead" "ratio" (Spans.overhead [ split ]);
    Spans.write_chrome t.trace_file [ trace ]
  end;
  Db.close db;
  Ctx.finish t ~dir ~user_bytes:m.user_bytes
