(* What the two served workloads share: the real ode_server executable
   over loopback, a closed-loop load generator of at most nproc
   connections (one domain each, every caller blocking on its reply), the
   counter diff over the window read through the server's [.stats], and
   the traced run's in-process replay of the recorded request stream. *)

module Client = Ode_served.Client
module Protocol = Ode_served.Protocol
module Session = Ode_served.Session
module Db = Ode.Database
module Ast = Ode_lang.Ast

(* ---- the server process ---- *)

type server = { pid : int; port : int; mutable alive : bool }

let spawn (t : Ctx.t) ~db_dir ~domains =
  let port_file = Filename.concat t.dir "port" in
  Host.rm_rf port_file;
  let argv =
    [| t.server; "--db"; db_dir; "--port"; "0"; "--port-file"; port_file;
       "--domains"; string_of_int domains; "--durability"; "group" |]
  in
  (* The server's banner goes nowhere; its errors go to our stderr. *)
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process t.server argv Unix.stdin null Unix.stderr)
  in
  let srv = { pid; port = 0; alive = true } in
  let deadline = Measure.now_ns () + 60_000_000_000 in
  let rec wait () =
    match Host.read_file port_file with
    | Some s when String.ends_with ~suffix:"\n" s ->
        { srv with port = int_of_string (String.trim s) }
    | _ ->
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            srv.alive <- false;
            failwith "ode_server exited before listening");
        if Measure.now_ns () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          srv.alive <- false;
          failwith "ode_server did not start listening within 60 s"
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  wait ()

(* SIGTERM asks for the graceful shutdown, which must exit 0. *)
let stop (t : Ctx.t) srv =
  if srv.alive then begin
    Unix.kill srv.pid Sys.sigterm;
    let _, status = Unix.waitpid [] srv.pid in
    srv.alive <- false;
    Ctx.check t (status = WEXITED 0) "ode_server did not exit 0 after SIGTERM"
  end

let kill srv =
  if srv.alive then begin
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] srv.pid);
    srv.alive <- false
  end

let connect srv = Client.connect ~timeout:60. ~host:"127.0.0.1" ~port:srv.port ()

(* The server's counters, by name, from its [.stats] dump. *)
let server_stats client =
  let text = String.map (function '\n' -> ' ' | c -> c) (Client.dot client ".stats") in
  let rec pairs acc = function
    | k :: v :: rest -> pairs ((k, int_of_string v) :: acc) rest
    | _ -> acc
  in
  pairs [] (List.filter (( <> ) "") (String.split_on_char ' ' text))

(* ---- the load generator ---- *)

(* One connection's state on its own domain. A recorded request carries
   the row counts its forall loops should produce, for the q-error. *)
type conn = {
  id : int;
  client : Client.t;
  rng : Ode_util.Prng.t;
  kinds : (string * Measure.samples) list;
  trace : Spans.t;
  split : Spans.split;
  mutable i : int;  (** next operation index *)
  mutable ops : int;  (** measured operations *)
  mutable rows : int;  (** rows the oracle expects the measured loops to produce *)
  mutable recorded : (Protocol.op * int list) list;  (** newest first *)
}

let make_conns srv ~seed ~kinds =
  List.init
    (max 1 (min 2 (Host.nproc ())))
    (fun id ->
      {
        id;
        client = connect srv;
        rng = Ode_util.Prng.create ((seed * 1000) + id);
        kinds = List.map (fun k -> (k, Measure.samples ())) kinds;
        trace = Spans.create (id + 1);
        split = Spans.split ();
        i = 0;
        ops = 0;
        rows = 0;
        recorded = [];
      })

(* Spawn the server on [db_dir] and connect; a server whose clients cannot
   connect does not outlive the failure. *)
let start (t : Ctx.t) ~db_dir ~domains ~kinds =
  let srv = spawn t ~db_dir ~domains in
  match make_conns srv ~seed:t.seed ~kinds with
  | conns -> (srv, conns)
  | exception e ->
      kill srv;
      raise e

(* Hang up and SIGTERM the server. *)
let shutdown t (srv, conns) =
  List.iter (fun c -> Client.close c.client) conns;
  stop t srv

(* One timed request. [rows] are the row counts of its forall loops. *)
let call (t : Ctx.t) c ~measured ~kind ~rows (op : Protocol.op) =
  if measured then Spans.next_op c.split c.trace ~traced:t.traced c.ops;
  let start = Measure.now_ns () in
  let reply =
    Spans.with_span c.trace ~op:c.i "client.roundtrip" (fun () ->
        match op with
        | Query src -> `Rows (Client.query c.client src)
        | Exec src -> `Output (Client.exec c.client src)
        | _ -> invalid_arg "Served.call")
  in
  if measured then begin
    let stop = Measure.now_ns () in
    Measure.add (List.assoc kind c.kinds) ~at:stop (float_of_int (stop - start) /. 1e6);
    c.ops <- c.ops + 1;
    c.rows <- c.rows + List.fold_left ( + ) 0 rows;
    if c.trace.on then c.recorded <- (op, rows) :: c.recorded
  end;
  reply

let on_domains conns f =
  List.iter Domain.join (List.map (fun c -> Domain.spawn (fun () -> f c)) conns)

type window = {
  ops : int;
  rows : int;
  since : int;
  busy_until : int;  (** when the first connection to finish finished *)
  elapsed_s : float;
  get : string -> int;  (** server counter deltas *)
  server_cpu : float;
  loadgen_cpu : float;
}

(* Warm up, then measure; counters and CPU are diffed over the measured
   phase only. [op c ~measured] runs connection [c]'s next operation and
   records failures itself. [per_s] sizes the sequences. Throughput counts
   the interval in which every connection was still busy. *)
let drive (t : Ctx.t) srv conns ~per_s ~op =
  let per_conn = per_s /. float_of_int (List.length conns) in
  let w = Measure.window ~budget:(Ctx.sequence t ~per_s:per_conn ()) ~seconds:t.seconds in
  let ctl = (List.hd conns).client and spid = string_of_int srv.pid in
  on_domains conns (fun c ->
      while Measure.warming w c.i do
        op c ~measured:false;
        c.i <- c.i + 1
      done);
  let s0 = server_stats ctl and cpu0 = Host.cpu_s spid and l0 = Host.cpu_s Host.self in
  let since = Measure.now_ns () in
  on_domains conns (fun c ->
      while Measure.measuring w ~since c.i do
        op c ~measured:true;
        c.i <- c.i + 1
      done;
      Spans.end_ops c.split c.trace);
  let elapsed_s = Measure.secs_of_ns (Measure.now_ns () - since) in
  let cpu1 = Host.cpu_s spid and l1 = Host.cpu_s Host.self in
  let s1 = server_stats ctl in
  let value s name = Option.value ~default:0 (List.assoc_opt name s) in
  let sum f = List.fold_left (fun a c -> a + f c) 0 conns in
  let last c =
    List.fold_left
      (fun a (_, (s : Measure.samples)) -> if s.n = 0 then a else max a s.at.(s.n - 1))
      since c.kinds
  in
  let busy_until = List.fold_left (fun a c -> min a (last c)) max_int conns in
  {
    ops = sum (fun c -> c.ops);
    rows = sum (fun c -> c.rows);
    since;
    busy_until;
    elapsed_s;
    get = (fun name -> value s1 name - value s0 name);
    server_cpu = cpu1 -. cpu0;
    loadgen_cpu = l1 -. l0;
  }

(* Metrics every served workload reports from its window. *)
let window_metrics (t : Ctx.t) srv conns r ~reads ~writes ~commits =
  t.elapsed_s <- r.elapsed_s;
  let pooled k =
    let s = Measure.samples () in
    List.iter (fun c -> Measure.merge_into s (List.assoc k c.kinds)) conns;
    (k, s)
  in
  let reads = List.map pooled reads and writes = List.map pooled writes in
  Ctx.latency t ~reads ~writes;
  Ctx.metric t "ops_per_s" "ops/s"
    (Measure.throughput (List.map snd (reads @ writes)) ~t0:r.since ~t1:r.busy_until);
  Ctx.metric t "peak_rss_mb" "MiB" (Host.peak_rss_mib (string_of_int srv.pid));
  Ctx.layer_counts t ~get:r.get ~ops:r.ops ~commits ~rows:r.rows;
  Ctx.metric t "server.cpu_us_per_op" "us" (Ctx.per (r.server_cpu *. 1e6) r.ops);
  Ctx.metric t "loadgen.cpu_us_per_op" "us" (Ctx.per (r.loadgen_cpu *. 1e6) r.ops);
  Ctx.absent t
    ([ ("query_geomean_ms", "ms"); ("recovery_s", "s"); ("storage.write_amp", "ratio");
       ("recovery.replayed", "records"); ("recovery.us_per_record", "us") ]
    @ Query_hot.per_template_absent)

(* ---- the traced run's replay ---- *)

let foralls (op : Protocol.op) =
  let tops =
    match op with
    | Query src -> Ode_lang.Parser.program ("explain " ^ src ^ ";")
    | Exec src -> Ode_lang.Parser.program src
    | _ -> []
  in
  List.filter_map (function Ast.TExplain f | TStmt (SForall f) -> Some f | _ -> None) tops

(* Replays the traced requests in-process against the stopped server's
   store: decode, the session's handling (the reader path for queries when
   the server had reader domains), the commit barrier and the reply
   encoding, timed as stage.decode, stage.execute, stage.fsync_wait and
   stage.reply. A plan-only pass over the same requests gives stage.parse,
   stage.plan and the q-errors. At most [cap] requests or [cap_ns]. *)
let replay (t : Ctx.t) ~db_dir ~readers conns r =
  let cap = 4000 and cap_ns = 3_000_000_000 in
  let db = Db.open_ db_dir in
  Db.set_durability db Db.Group;
  let trace = Spans.create 0 in
  trace.on <- true;
  let plan_only op rows =
    let fs = Spans.with_span trace "stage.parse" (fun () -> foralls op) in
    Db.with_read_txn db (fun txn ->
        List.map2
          (fun (f : Ast.forall) actual ->
            let est =
              Spans.with_span trace "stage.plan" (fun () ->
                  (Ode.Planner.plan db ~txn ~var:f.q_var ~cls:f.q_cls ~deep:f.q_deep
                     ~suchthat:f.q_suchthat ())
                    .p_est.est_out)
            in
            Ctx.qerror ~est ~actual)
          fs rows)
  in
  let serve s n op =
    let frame = Buffer.create 256 in
    Protocol.encode_request frame { rq_id = n; rq_trace = 0; rq_op = op };
    let body = Buffer.sub frame 4 (Buffer.length frame - 4) in
    Spans.with_span trace ~op:n "replay" (fun () ->
        let rq = Spans.with_span trace "stage.decode" (fun () -> Protocol.decode_request body) in
        let rs =
          Spans.with_span trace "stage.execute" (fun () ->
              match rq.rq_op with
              | Query _ when readers && not (Session.in_transaction s) -> Session.handle_read s rq
              | _ -> Session.handle s rq)
        in
        Spans.with_span trace "stage.fsync_wait" (fun () -> Db.sync_commits db);
        Spans.with_span trace "stage.reply" (fun () ->
            Protocol.encode_response (Buffer.create 256) rs))
  in
  (* Round-robin over the connections, each in its own session, in the
     order each sent its requests. *)
  let streams =
    List.map (fun c -> (Session.create ~id:c.id db, Array.of_list (List.rev c.recorded))) conns
  in
  let qerrs = ref [] and n = ref 0 and round = ref 0 in
  let start = Measure.now_ns () in
  let more () =
    !n < cap && Measure.now_ns () - start < cap_ns
    && List.exists (fun (_, a) -> !round < Array.length a) streams
  in
  while more () do
    List.iter
      (fun (s, a) ->
        if !round < Array.length a && !n < cap then begin
          let op, rows = a.(!round) in
          qerrs := plan_only op rows @ !qerrs;
          serve s !n op;
          incr n
        end)
      streams;
    incr round
  done;
  List.iter (fun (s, _) -> Session.close s) streams;
  Db.close db;
  let self = Spans.self_ns [ trace ] in
  Ctx.qerror_metrics t !qerrs;
  Ctx.stage_times t ~self_ns:self ~ops:!n;
  let client = Spans.self_ns (List.map (fun c -> c.trace) conns) in
  let traced = Spans.traced_ops (List.map (fun c -> c.split) conns) in
  let us_per ns ops = Ctx.per (float_of_int ns /. 1000.) ops in
  let roundtrip_us = us_per (client "client.roundtrip") traced in
  let served = [ "stage.decode"; "stage.execute"; "stage.fsync_wait"; "stage.reply" ] in
  let served_us = us_per (List.fold_left (fun a s -> a + self s) 0 served) !n in
  Ctx.metric t "client.roundtrip_us" "us" roundtrip_us;
  Ctx.metric t "server.outside_us" "us" (roundtrip_us -. served_us);
  let execute_ns = Ctx.per (float_of_int (self "stage.execute")) !n in
  let candidates = Ctx.ratio (r.get "objects_scanned") r.ops in
  Ctx.ns_per_candidate t ~execute_ns ~candidates;
  Ctx.metric t "trace.overhead" "ratio" (Spans.overhead (List.map (fun c -> c.split) conns));
  Spans.write_chrome t.trace_file (trace :: List.map (fun c -> c.trace) conns)
