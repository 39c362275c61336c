(* Serving: one poll(2) event loop on one domain, which owns the sockets,
   the database, the WAL and the group-commit batch scheduler. One
   iteration: poll for readiness, accept what's pending, read what's
   readable (feeding each connection's frame reader), execute complete
   requests, ack, write. Every request runs to completion where it is read,
   one at a time, so replies stay in request order and transaction
   semantics are exactly the embedded ones. An autocommitted [Query] (or a
   [Ping]) runs in a detached read-only transaction; one that turns out to
   write raises [Read_only_txn] before touching shared state and is
   replayed in an ordinary transaction, counted in [server.reroutes].
   Sessions interleave their transactions on the one domain under MVCC.

   The iteration doubles as the group-commit batch scheduler. Replies are
   never written from the read phase — they accumulate in each connection's
   [out] buffer — and between the read phase and the write phase sits the
   ack point: one [Database.sync_commits] covering every autocommit executed
   this tick. So under [Group] durability a reply can only reach the socket
   after the fsync that made its commit durable, while a tick that executed
   N requests paid for one fsync, not N.

   Replication rides the same loop. A
   primary with a replication port keeps a second listener; each connected
   standby is a [downstream] whose buffer the WAL observer feeds with every
   post-fsync batch — the observer fires inside [Wal.sync], strictly after
   the barrier, so a standby can never hold a commit the primary could
   still lose. A replica runs the same loop with an [upstream] link
   instead: batches in (applied between requests, so its sessions serve
   stale-but-consistent queries meanwhile), acks out, promotion on
   [.promote] or SIGUSR1. Under [sync_repl] the write phase additionally
   holds back any reply whose commit no streaming replica has acknowledged
   yet (semi-sync), degrading after a timeout rather than blocking writes
   forever on a dead standby. *)

module Stats = Ode_util.Stats
module Db = Ode.Database

let c_server_accepts = Stats.counter "server.accepts"
let c_server_rejects = Stats.counter "server.rejects"
let c_server_timeouts = Stats.counter "server.timeouts"
let c_server_bytes_in = Stats.counter "server.bytes_in"
let c_server_bytes_out = Stats.counter "server.bytes_out"
let c_server_reroutes = Stats.counter "server.reroutes"
let c_server_accept_backoffs = Stats.counter "server.accept_backoffs"
let c_repl_batches_sent = Stats.counter "repl.batches_sent"
let c_repl_bytes_sent = Stats.counter "repl.bytes_sent"
let c_repl_acks = Stats.counter "repl.acks"
let c_repl_resyncs = Stats.counter "repl.resyncs"
let c_repl_sync_degraded = Stats.counter "repl.sync_degraded"
let c_repl_lag_commits = Stats.counter ~kind:Stats.Gauge "repl.lag_commits"
let c_repl_lag_bytes = Stats.counter ~kind:Stats.Gauge "repl.lag_bytes"

type conn = {
  fd : Unix.file_descr;
  rd : Protocol.reader;
  out : Buffer.t;             (* encoded responses awaiting the socket *)
  mutable out_pos : int;      (* written prefix of [out] *)
  mutable state : [ `Hello | `Active of Session.t ];
  mutable closing : bool;     (* close once [out] drains *)
  mutable last : float;       (* last byte received (idle eviction) *)
  mutable sent_lsn : int;     (* highest commit LSN this conn's buffered
                                 replies acknowledge (semi-sync gate) *)
  mutable alive : bool;       (* false once dropped (the idle queue and the
                                 poll dispatch hold stale references) *)
}

(* A standby streaming from us. *)
type downstream = {
  d_fd : Unix.file_descr;
  d_rd : Protocol.reader;
  d_out : Buffer.t;
  mutable d_out_pos : int;
  mutable d_state : [ `Magic | `Hello | `Streaming ];
  mutable d_acked : int;      (* highest LSN it acknowledged; -1 = none yet *)
}

(* The primary we stream from (replica role). *)
type upstream_state = {
  u_host : string;
  u_port : int;
  mutable u_link : Replication.upstream option; (* None while reconnecting *)
  u_out : Buffer.t;           (* pending acks *)
  mutable u_out_pos : int;
  mutable u_retry_at : float;
}

(* A metrics/health HTTP client: one GET in, one response out, close. *)
type mconn = {
  m_fd : Unix.file_descr;
  m_buf : Buffer.t;           (* request bytes until the blank line *)
  m_out : Buffer.t;
  mutable m_out_pos : int;
  mutable m_done : bool;      (* response built; close once [m_out] drains *)
  mutable m_last : float;
}

(* What each poll slot means this tick (index-aligned with [Poll.add]). *)
type slot =
  | S_none
  | S_listen
  | S_repl_listen
  | S_metrics_listen
  | S_up
  | S_conn of conn
  | S_down of downstream
  | S_metrics of mconn

type t = {
  db : Ode.Database.t;
  listen_fd : Unix.file_descr;
  lport : int;
  repl_listen_fd : Unix.file_descr option;
  rport : int;                (* 0 when replication is not served *)
  metrics_fd : Unix.file_descr option;
  mport : int;                (* 0 when no metrics endpoint is served *)
  sync_repl : bool;
  max_conns : int;
  idle_timeout : float;
  group_window : int;         (* force a sync once this many commits pend *)
  read_buf : bytes;           (* scratch shared by every socket read *)
  pset : Poll.t;
  mutable slots : slot array;
  idle_q : (float * conn) Queue.t; (* (enqueued_at, conn), push-time order *)
  mutable accept_pause : float; (* fd exhaustion: no accepts until then *)
  mutable conns : conn list;
  mutable mconns : mconn list;
  mutable downstreams : downstream list;
  mutable upstream : upstream_state option; (* Some = replica role *)
  mutable degraded : bool;    (* semi-sync waived until replicas catch up *)
  mutable gate_since : float option; (* oldest unmet semi-sync wait *)
  mutable promote_flag : bool; (* set by SIGUSR1, consumed by the loop *)
  mutable next_session : int;
  mutable stop : bool;
}

(* Stop reading a connection once this much response data is backed up;
   reads resume when the client drains its socket. *)
let out_cap = 1 lsl 20

(* A standby that stops draining its stream is cut off at this backlog; it
   will resync when it comes back. *)
let downstream_out_cap = 64 * 1024 * 1024
let max_downstreams = 8

(* Bounded flush window for graceful shutdown. *)
let drain_deadline = 5.0

(* Semi-sync degrade: how long client acks may wait on replica acks before
   the gate opens (and [repl.sync_degraded] counts the event). *)
let sync_repl_timeout = 5.0

(* How long accepting pauses after EMFILE/ENFILE: long enough not to spin
   on a listener we cannot serve, short enough to pick arrivals up as soon
   as a descriptor frees. *)
let accept_backoff = 0.2

(* Scrapers are few and short-lived; anything past this is a mistake. *)
let max_mconns = 16
let mconn_idle_timeout = 30.
let max_http_request = 8192

let port t = t.lport
let repl_port t = t.rport
let metrics_port t = t.mport
let connections t = List.length t.conns
let shutdown t = t.stop <- true

let handle_signals t =
  let h = Sys.Signal_handle (fun _ -> shutdown t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h;
  (* Promotion by signal: the handler only sets a flag; the loop promotes
     between iterations. Harmless on a primary. *)
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> t.promote_flag <- true))

let out_pending c = Buffer.length c.out - c.out_pos
let d_pending d = Buffer.length d.d_out - d.d_out_pos
let u_pending u = Buffer.length u.u_out - u.u_out_pos

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let drop t c =
  c.alive <- false;
  (match c.state with `Active s -> Session.close s | `Hello -> ());
  close_fd c.fd;
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let drop_downstream t d =
  close_fd d.d_fd;
  t.downstreams <- List.filter (fun d' -> d' != d) t.downstreams

let is_primary t = t.upstream = None

(* -- poll set bookkeeping ------------------------------------------------- *)

let slot_add t slot fd ~read ~write =
  let i = Poll.add t.pset fd ~read ~write in
  if i >= Array.length t.slots then begin
    let ns = Array.make (max 64 (2 * Array.length t.slots)) S_none in
    Array.blit t.slots 0 ns 0 (Array.length t.slots);
    t.slots <- ns
  end;
  t.slots.(i) <- slot

(* -- replication: primary side ------------------------------------------- *)

(* The WAL observer: called inside [Wal.sync] after the barrier, with the
   frames covering commits (from_lsn, to_lsn]. Only enqueues — the sockets
   are serviced by the loop's write phase. *)
let feed t ~data ~from_lsn ~to_lsn =
  List.iter
    (fun d ->
      if d.d_state = `Streaming then begin
        Protocol.encode_repl d.d_out (Protocol.R_batch (from_lsn, to_lsn, data));
        Stats.incr c_repl_batches_sent;
        Stats.add c_repl_bytes_sent (String.length data)
      end)
    t.downstreams

let rec accept_repl t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_repl t lfd
  | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      Stats.incr c_server_accept_backoffs;
      t.accept_pause <- Unix.gettimeofday () +. accept_backoff;
      Printf.eprintf "server: accept (replication): out of file descriptors; backing off\n%!"
  | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      (* A replica does not serve replicas (no cascading) — and a full house
         just hangs up; the standby's bootstrap retries. *)
      if Db.read_only t.db || List.length t.downstreams >= max_downstreams then close_fd fd
      else
        t.downstreams <-
          {
            d_fd = fd;
            d_rd = Protocol.reader ~max_len:Protocol.repl_max_frame_len ();
            d_out = Buffer.create 4096;
            d_out_pos = 0;
            d_state = `Magic;
            d_acked = -1;
          }
          :: t.downstreams;
      accept_repl t lfd

(* Advance a downstream's handshake and consume its acks. Anything
   malformed drops the connection — the standby resyncs. *)
let process_downstream t d =
  try
    (match d.d_state with
    | `Magic -> (
        match Protocol.take d.d_rd Protocol.repl_hello_len with
        | None -> ()
        | Some s -> (
            match Protocol.parse_repl_hello s with
            | Ok () -> d.d_state <- `Hello
            | Error _ -> raise Exit))
    | _ -> ());
    (match d.d_state with
    | `Hello -> (
        match Protocol.next_frame d.d_rd with
        | None -> ()
        | Some body -> (
            match Protocol.decode_repl body with
            | Protocol.R_hello lsn -> (
                (* [answer_hello] may checkpoint and read the data files
                   off disk (snapshot path). The sync inside feeds the
                   *other*, already-streaming downstreams — this one only
                   starts receiving batches once marked [`Streaming]
                   below, right after its backlog. *)
                match Replication.answer_hello t.db ~replica_lsn:lsn with
                | Replication.Resume { from_lsn; to_lsn; backlog } ->
                    Protocol.encode_repl d.d_out (Protocol.R_resume from_lsn);
                    if String.length backlog > 0 then begin
                      Protocol.encode_repl d.d_out
                        (Protocol.R_batch (from_lsn, to_lsn, backlog));
                      Stats.incr c_repl_batches_sent;
                      Stats.add c_repl_bytes_sent (String.length backlog)
                    end;
                    (* It proved possession up to [from_lsn]. *)
                    d.d_acked <- from_lsn;
                    d.d_state <- `Streaming
                | Replication.Snapshot { lsn; files } ->
                    Protocol.encode_repl d.d_out (Protocol.R_snapshot (lsn, files));
                    d.d_state <- `Streaming)
            | _ -> raise Exit))
    | _ -> ());
    if d.d_state = `Streaming then begin
      let rec acks () =
        match Protocol.next_frame d.d_rd with
        | None -> ()
        | Some body ->
            (match Protocol.decode_repl body with
            | Protocol.R_ack lsn ->
                Stats.incr c_repl_acks;
                if lsn > d.d_acked then d.d_acked <- lsn
            | _ -> raise Exit);
            acks ()
      in
      acks ()
    end
  with Exit | Ode_util.Codec.Corrupt _ -> drop_downstream t d

let handle_downstream_read t d =
  match Unix.read d.d_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop_downstream t d
  | 0 -> drop_downstream t d
  | n ->
      Stats.add c_server_bytes_in n;
      Protocol.feed d.d_rd t.read_buf n;
      process_downstream t d

let handle_downstream_write t d =
  let data = Buffer.contents d.d_out in
  match Unix.write_substring d.d_fd data d.d_out_pos (String.length data - d.d_out_pos) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop_downstream t d
  | n ->
      Stats.add c_server_bytes_out n;
      d.d_out_pos <- d.d_out_pos + n;
      if d.d_out_pos = Buffer.length d.d_out then begin
        Buffer.clear d.d_out;
        d.d_out_pos <- 0
      end

(* Highest LSN any streaming replica acknowledged: classic semi-sync wants
   at least one standby holding the commit, not all of them. *)
let best_acked t =
  List.fold_left
    (fun acc d -> if d.d_state = `Streaming then max acc d.d_acked else acc)
    (-1) t.downstreams

(* -- replication: replica side ------------------------------------------- *)

let queue_ack t u = Protocol.encode_repl u.u_out (Protocol.R_ack (Db.lsn t.db))

let upstream_fault _t u reason =
  (match u.u_link with Some l -> close_fd l.Replication.up_fd | None -> ());
  u.u_link <- None;
  Buffer.clear u.u_out;
  u.u_out_pos <- 0;
  Stats.incr c_repl_resyncs;
  u.u_retry_at <- Unix.gettimeofday () +. 1.0;
  Printf.eprintf "replication: upstream lost (%s); retrying\n%!" reason

(* Drain every complete frame buffered from the primary, applying batches
   and queueing an ack per batch. Snapshot reads keep working throughout,
   between batches. *)
let process_upstream t u link =
  let rec go () =
    match Protocol.next_frame link.Replication.up_rd with
    | None -> ()
    | Some body ->
        (match Protocol.decode_repl body with
        | Protocol.R_batch (from_lsn, to_lsn, data) ->
            (match Replication.apply_batch t.db ~from_lsn ~to_lsn ~data with
            | `Applied | `Duplicate -> queue_ack t u)
        | _ -> raise (Replication.Resync "unexpected message from primary"));
        go ()
  in
  try go () with
  | Replication.Resync msg -> upstream_fault t u msg
  | Ode_util.Codec.Corrupt msg -> upstream_fault t u msg

let handle_upstream_read t u link =
  match Unix.read link.Replication.up_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | ETIMEDOUT), _, _) ->
      upstream_fault t u "connection reset"
  | 0 -> upstream_fault t u "primary closed the stream"
  | n ->
      Stats.add c_server_bytes_in n;
      Protocol.feed link.Replication.up_rd t.read_buf n;
      process_upstream t u link

let handle_upstream_write t u link =
  let data = Buffer.contents u.u_out in
  match
    Unix.write_substring link.Replication.up_fd data u.u_out_pos
      (String.length data - u.u_out_pos)
  with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
      upstream_fault t u "connection reset"
  | n ->
      Stats.add c_server_bytes_out n;
      u.u_out_pos <- u.u_out_pos + n;
      if u.u_out_pos = Buffer.length u.u_out then begin
        Buffer.clear u.u_out;
        u.u_out_pos <- 0
      end

(* Re-handshake after a fault. [Replication.reconnect] connects with a
   blocking socket — on loopback a dead primary refuses instantly, so the
   loop stalls only when the primary is reachable but wedged. *)
let try_reconnect t u =
  if u.u_link = None && Unix.gettimeofday () >= u.u_retry_at then
    match Replication.reconnect ~host:u.u_host ~port:u.u_port t.db with
    | Ok link ->
        Unix.set_nonblock link.Replication.up_fd;
        u.u_link <- Some link;
        queue_ack t u;
        (* Batches the primary pipelined behind the resume reply. *)
        process_upstream t u link
    | Error msg ->
        u.u_retry_at <- Unix.gettimeofday () +. 2.0;
        Printf.eprintf "replication: reconnect failed (%s)\n%!" msg

(* -- promotion and introspection ----------------------------------------- *)

let promote t =
  match t.upstream with
  | None -> Stdlib.Error "not a replica (already primary)"
  | Some u ->
      (match u.u_link with Some l -> close_fd l.Replication.up_fd | None -> ());
      t.upstream <- None;
      Db.set_read_only t.db false;
      Stdlib.Ok (Printf.sprintf "promoted to primary at lsn %d" (Db.lsn t.db))

let replication_report t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (match t.upstream with
  | Some u ->
      add "role           replica of %s:%d (%s)\n" u.u_host u.u_port
        (match u.u_link with Some _ -> "connected" | None -> "disconnected, retrying")
  | None -> add "role           primary\n");
  add "lsn            %d\n" (Db.lsn t.db);
  add "durable_lsn    %d\n" (Db.durable_lsn t.db);
  if is_primary t then begin
    add "sync_repl      %s%s\n"
      (if t.sync_repl then "on" else "off")
      (if t.degraded then " (degraded)" else "");
    add "replicas       %d\n" (List.length t.downstreams);
    let durable = Db.durable_lsn t.db in
    List.iter
      (fun d ->
        match d.d_state with
        | `Streaming when d.d_acked >= 0 ->
            add "  streaming    acked %d (lag %d commits, %d bytes queued)\n" d.d_acked
              (max 0 (durable - d.d_acked))
              (d_pending d)
        | `Streaming -> add "  streaming    no ack yet (%d bytes queued)\n" (d_pending d)
        | `Magic | `Hello -> add "  handshaking\n")
      t.downstreams
  end;
  Buffer.contents b

(* Dot commands that need the server, not just the session. *)
let server_dot t line : Protocol.reply option =
  match String.trim line with
  | ".promote" -> (
      match promote t with
      | Ok msg -> Some (Protocol.Output (msg ^ "\n"))
      | Error msg -> Some (Protocol.Error { cls = User; msg }))
  | ".replication" -> Some (Protocol.Output (replication_report t))
  | _ -> None

(* -- metrics / health endpoint -------------------------------------------- *)

(* A deliberately tiny HTTP responder for scrapers, riding the poll loop —
   no extra threads, no keep-alive: parse the request line of one GET,
   answer, close. *)

let m_pending m = Buffer.length m.m_out - m.m_out_pos

let drop_mconn t m =
  close_fd m.m_fd;
  t.mconns <- List.filter (fun m' -> m' != m) t.mconns

let http_response ?(status = "200 OK") ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

(* Role and positions for liveness probes; a standby's [lsn] is its
   replication apply position, which is what the CI smoke asserts. *)
let health_json t =
  Printf.sprintf
    "{\"role\":\"%s\",\"lsn\":%d,\"durable_lsn\":%d,\"connections\":%d,\"slow_log_armed\":%b}\n"
    (if is_primary t then "primary" else "replica")
    (Db.lsn t.db) (Db.durable_lsn t.db) (List.length t.conns)
    (Ode_util.Slowlog.armed ())

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let metrics_answer t m =
  let req = Buffer.contents m.m_buf in
  let line =
    match String.index_opt req '\n' with
    | Some i -> String.trim (String.sub req 0 i)
    | None -> String.trim req
  in
  let resp =
    match String.split_on_char ' ' line with
    | "GET" :: path :: _ -> (
        match path with
        | "/metrics" ->
            http_response ~content_type:"text/plain; version=0.0.4; charset=utf-8"
              (Ode_util.Metrics.prometheus ())
        | "/metrics.json" ->
            http_response ~content_type:"application/json" (Ode_util.Metrics.json () ^ "\n")
        | "/health" -> http_response ~content_type:"application/json" (health_json t)
        | _ -> http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n")
    | _ -> http_response ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n"
  in
  Buffer.add_string m.m_out resp;
  m.m_done <- true

let rec accept_metrics t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_metrics t lfd
  | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      Stats.incr c_server_accept_backoffs;
      t.accept_pause <- Unix.gettimeofday () +. accept_backoff
  | fd, _ ->
      Unix.set_nonblock fd;
      if List.length t.mconns >= max_mconns then close_fd fd
      else
        t.mconns <-
          {
            m_fd = fd;
            m_buf = Buffer.create 256;
            m_out = Buffer.create 4096;
            m_out_pos = 0;
            m_done = false;
            m_last = Unix.gettimeofday ();
          }
          :: t.mconns;
      accept_metrics t lfd

let handle_metrics_read t m =
  match Unix.read m.m_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_mconn t m
  | 0 -> drop_mconn t m
  | n ->
      m.m_last <- Unix.gettimeofday ();
      Buffer.add_subbytes m.m_buf t.read_buf 0 n;
      if Buffer.length m.m_buf > max_http_request then drop_mconn t m
      else if not m.m_done then begin
        let req = Buffer.contents m.m_buf in
        if has_substring req "\r\n\r\n" || has_substring req "\n\n" then metrics_answer t m
      end

let handle_metrics_write t m =
  let data = Buffer.contents m.m_out in
  match Unix.write_substring m.m_fd data m.m_out_pos (String.length data - m.m_out_pos) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_mconn t m
  | n ->
      m.m_out_pos <- m.m_out_pos + n;
      if m.m_done && m.m_out_pos = Buffer.length m.m_out then drop_mconn t m

let sweep_mconns t now =
  if t.mconns <> [] then
    List.iter
      (fun m -> if now -. m.m_last > mconn_idle_timeout then drop_mconn t m)
      t.mconns

(* -- semi-sync gate ------------------------------------------------------- *)

(* Replies covering commits past what the replicas acknowledged wait in
   their buffers. *)
let gated t c =
  t.sync_repl && is_primary t && (not t.degraded) && c.sent_lsn > best_acked t

(* Degrade rather than block forever: when some reply has been gated for
   [sync_repl_timeout], open the gate (counted) until the replicas catch
   back up to the durable position. *)
let manage_gate t now =
  if t.sync_repl && is_primary t then begin
    if t.degraded then begin
      if best_acked t >= Db.durable_lsn t.db then begin
        t.degraded <- false;
        t.gate_since <- None
      end
    end
    else
      let blocked =
        let best = best_acked t in
        List.exists (fun c -> out_pending c > 0 && c.sent_lsn > best) t.conns
      in
      if not blocked then t.gate_since <- None
      else
        match t.gate_since with
        | None -> t.gate_since <- Some now
        | Some s when now -. s > sync_repl_timeout ->
            t.degraded <- true;
            t.gate_since <- None;
            Stats.incr c_repl_sync_degraded
        | Some _ -> ()
  end

let update_gauges t =
  let has_repl =
    (match t.repl_listen_fd with Some _ -> true | None -> false) || not (is_primary t)
  in
  if has_repl then begin
    let durable = Db.durable_lsn t.db in
    Stats.set c_repl_lag_commits
      (List.fold_left
         (fun acc d ->
           if d.d_state = `Streaming && d.d_acked >= 0 then max acc (durable - d.d_acked)
           else acc)
         0 t.downstreams);
    Stats.set c_repl_lag_bytes (List.fold_left (fun acc d -> acc + d_pending d) 0 t.downstreams)
  end

(* -- accepting ------------------------------------------------------------ *)

let rec accept_pending t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_pending t
  | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      (* Descriptor exhaustion: pause accepting rather than spinning on a
         listener we cannot serve. Existing connections keep draining —
         which is exactly what frees descriptors — and the listener rejoins
         the poll set once the backoff lapses. *)
      Stats.incr c_server_accept_backoffs;
      t.accept_pause <- Unix.gettimeofday () +. accept_backoff;
      Printf.eprintf "server: accept: out of file descriptors; backing off\n%!"
  | fd, _ ->
      Stats.incr c_server_accepts;
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      if List.length t.conns >= t.max_conns then begin
        (* Friendly rejection: a complete handshake reply, then goodbye. The
           7-byte write into a fresh socket's empty send buffer cannot
           block. *)
        Stats.incr c_server_rejects;
        (try
           ignore
             (Unix.write_substring fd (Protocol.hello_reply Busy) 0 Protocol.hello_reply_len)
         with Unix.Unix_error _ -> ());
        close_fd fd
      end
      else begin
        let now = Unix.gettimeofday () in
        let c =
          {
            fd;
            rd = Protocol.reader ();
            out = Buffer.create 1024;
            out_pos = 0;
            state = `Hello;
            closing = false;
            last = now;
            sent_lsn = -1;
            alive = true;
          }
        in
        t.conns <- c :: t.conns;
        if t.idle_timeout > 0. then Queue.push (now, c) t.idle_q
      end;
      accept_pending t

(* -- per-connection processing -------------------------------------------- *)

let try_handshake t c =
  match Protocol.take c.rd Protocol.hello_len with
  | None -> ()
  | Some hello -> (
      match Protocol.parse_hello hello with
      | Ok () ->
          Buffer.add_string c.out (Protocol.hello_reply Accepted);
          t.next_session <- t.next_session + 1;
          c.state <- `Active (Session.create ~id:t.next_session t.db)
      | Error _ ->
          (* Version skew or garbage: answer with a parseable rejection and
             hang up. *)
          Stats.incr c_server_rejects;
          Buffer.add_string c.out (Protocol.hello_reply Bad_version);
          c.closing <- true)

(* Execute one request, buffer its reply, track the semi-sync position,
   bound the deferred-durability window. An autocommitted [Query] or a
   [Ping] runs in a detached read-only transaction; a query that turns out
   to write is replayed in an ordinary one (already counted once as a
   request). Inside an explicit transaction a query must see the
   transaction's own writes, so it runs there, like every other request. *)
let exec t c session (rq : Protocol.request) =
  let before = Db.lsn t.db in
  let resp =
    match rq.rq_op with
    | Ping | Query _ when not (Session.in_transaction session) -> (
        try Session.handle_read session rq
        with Ode.Types.Read_only_txn ->
          Stats.incr c_server_reroutes;
          Session.handle ~count:false session rq)
    | _ -> Session.handle session rq
  in
  (* Only a request that moved the LSN puts this connection under the
     semi-sync gate — reads ride free. *)
  if Db.lsn t.db > before then c.sent_lsn <- Db.lsn t.db;
  Protocol.encode_response c.out resp;
  (* Bound the deferred-durability window: a long batch syncs every
     [group_window] commits rather than once at the end. *)
  if Db.pending_commits t.db >= t.group_window then Db.sync_commits t.db

let run_frames t c session =
  try
    let rec go () =
      (* Backpressure: leave complete frames buffered while this client's
         responses are backed up. *)
      if out_pending c < out_cap && not c.closing then
        match Protocol.next_frame c.rd with
        | None -> ()
        | Some body ->
            let rq = Protocol.decode_request body in
            let server_reply =
              match rq.rq_op with Protocol.Dot line -> server_dot t line | _ -> None
            in
            (match server_reply with
            | Some reply ->
                Protocol.encode_response c.out
                  { Protocol.rs_id = rq.rq_id; rs_lsn = Db.lsn t.db; rs_reply = reply }
            | None -> (
                exec t c session rq;
                match rq.rq_op with Close -> c.closing <- true | _ -> ()));
            go ()
    in
    go ()
  with Ode_util.Codec.Corrupt msg ->
    Protocol.encode_response c.out
      {
        rs_id = 0;
        rs_lsn = Db.lsn t.db;
        rs_reply = Error { cls = Corrupt; msg = "protocol error: " ^ msg };
      };
    c.closing <- true

let process t c =
  (match c.state with `Hello -> try_handshake t c | `Active _ -> ());
  match c.state with `Active s -> run_frames t c s | `Hello -> ()

let handle_read t c =
  match Unix.read c.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop t c
  | 0 -> drop t c
  | n ->
      Stats.add c_server_bytes_in n;
      c.last <- Unix.gettimeofday ();
      Protocol.feed c.rd t.read_buf n;
      process t c

let handle_write t c =
  let data = Buffer.contents c.out in
  match Unix.write_substring c.fd data c.out_pos (String.length data - c.out_pos) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop t c
  | n ->
      Stats.add c_server_bytes_out n;
      c.out_pos <- c.out_pos + n;
      if c.out_pos = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_pos <- 0;
        if c.closing then drop t c
        else
          (* The backlog drained: execute any requests that backpressure
             left buffered. *)
          process t c
      end

(* -- idle eviction -------------------------------------------------------- *)

(* Monotonic last-activity queue: every live connection has exactly one
   entry, (re)queued with the wall-clock push time, so entries leave the
   head in push order and each tick pays O(ripe), not O(connections). An
   entry is inspected half a timeout after it was queued: connections that
   were active meanwhile are requeued, stale ones evicted — so eviction
   lands between [idle_timeout] and 1.5x after the last byte. Dead
   connections' entries are dropped lazily ([alive]). *)
let evict_idle t =
  if t.idle_timeout > 0. then begin
    let now = Unix.gettimeofday () in
    let ripe = now -. (t.idle_timeout /. 2.) in
    let rec go () =
      match Queue.peek_opt t.idle_q with
      | Some (enq, c) when enq <= ripe ->
          ignore (Queue.pop t.idle_q);
          if c.alive then
            if now -. c.last > t.idle_timeout then begin
              Stats.incr c_server_timeouts;
              drop t c
            end
            else Queue.push (now, c) t.idle_q;
          go ()
      | _ -> ()
    in
    go ()
  end

(* -- the loop ------------------------------------------------------------- *)

(* The ack point. Under [Group] durability every commit prepared this tick
   becomes durable here, before any reply reaches a socket. [Full] commits
   synced eagerly (nothing pends); [Async] chose to reply without waiting,
   its window bounded by [group_window] in [run_frames] and by checkpoints. *)
let ack_deferred t =
  match Db.durability t.db with
  | Db.Group -> Db.sync_commits t.db
  | Db.Full | Db.Async -> ()

(* Zero-timeout re-polls after the first read pass: requests that arrived
   while this tick was executing earlier ones join the same batch (and the
   same shared fsync) instead of waiting out a full poll round trip.
   Costless for latency — only what has already arrived is taken — and
   bounded so a firehose of pipelined clients cannot starve the ack and
   write phases. *)
let gather_rounds = 8

let want_read c = (not c.closing) && out_pending c < out_cap

let rec gather t rounds =
  if rounds > 0 then begin
    Poll.clear t.pset;
    List.iter
      (fun c -> if want_read c then slot_add t (S_conn c) c.fd ~read:true ~write:false)
      t.conns;
    if Poll.length t.pset > 0 && Poll.wait t.pset ~timeout_ms:0 > 0 then begin
      let n = Poll.length t.pset in
      for i = 0 to n - 1 do
        if Poll.is_readable (Poll.revents t.pset i) then
          match t.slots.(i) with
          | S_conn c when c.alive -> handle_read t c
          | _ -> ()
      done;
      gather t (rounds - 1)
    end
  end

let one_iteration t =
  let now = Unix.gettimeofday () in
  if t.promote_flag then begin
    t.promote_flag <- false;
    match promote t with
    | Ok msg -> Printf.eprintf "replication: %s\n%!" msg
    | Error _ -> ()
  end;
  (match t.upstream with Some u -> try_reconnect t u | None -> ());
  manage_gate t now;
  (* Register interest. Slot indices are dense and index-aligned with
     [t.slots], rebuilt every tick. *)
  Poll.clear t.pset;
  if now >= t.accept_pause then slot_add t S_listen t.listen_fd ~read:true ~write:false;
  (match t.repl_listen_fd with
  | Some fd -> slot_add t S_repl_listen fd ~read:true ~write:false
  | None -> ());
  (match t.metrics_fd with
  | Some fd -> slot_add t S_metrics_listen fd ~read:true ~write:false
  | None -> ());
  List.iter
    (fun m -> slot_add t (S_metrics m) m.m_fd ~read:(not m.m_done) ~write:(m_pending m > 0))
    t.mconns;
  (match t.upstream with
  | Some ({ u_link = Some l; _ } as u) ->
      slot_add t S_up l.Replication.up_fd ~read:true ~write:(u_pending u > 0)
  | _ -> ());
  List.iter
    (fun c ->
      let r = want_read c in
      let w = out_pending c > 0 && not (gated t c) in
      if r || w then slot_add t (S_conn c) c.fd ~read:r ~write:w)
    t.conns;
  List.iter
    (fun d -> slot_add t (S_down d) d.d_fd ~read:true ~write:(d_pending d > 0))
    t.downstreams;
  (* An accept backoff about to lapse means work is waiting — don't sleep
     a full tick on it. *)
  let timeout_ms = if t.accept_pause > now then 50 else 250 in
  ignore (Poll.wait t.pset ~timeout_ms);
  let n = Poll.length t.pset in
  (* Listeners and the upstream first: accepts and shipped batches applied
     this tick are visible to everything below. *)
  for i = 0 to n - 1 do
    if Poll.is_readable (Poll.revents t.pset i) then
      match t.slots.(i) with
      | S_listen -> accept_pending t
      | S_repl_listen -> (
          match t.repl_listen_fd with Some fd -> accept_repl t fd | None -> ())
      | S_metrics_listen -> (
          match t.metrics_fd with Some fd -> accept_metrics t fd | None -> ())
      | S_metrics m when List.memq m t.mconns -> handle_metrics_read t m
      | S_up -> (
          match t.upstream with
          | Some ({ u_link = Some l; _ } as u) -> handle_upstream_read t u l
          | _ -> ())
      | _ -> ()
  done;
  (* Client reads: feed frame readers, execute complete requests. *)
  for i = 0 to n - 1 do
    if Poll.is_readable (Poll.revents t.pset i) then
      match t.slots.(i) with
      | S_conn c when c.alive -> handle_read t c
      | _ -> ()
  done;
  gather t gather_rounds;
  (* Standby acks — read before the write phase so the semi-sync gate sees
     them this tick. *)
  for i = 0 to n - 1 do
    if Poll.is_readable (Poll.revents t.pset i) then
      match t.slots.(i) with
      | S_down d when List.memq d t.downstreams -> handle_downstream_read t d
      | _ -> ()
  done;
  (* Read phase done: everything executed this tick shares one fsync.
     Replies buffered above only hit the sockets below, after it — and the
     fsync fed the observer, so the batches covering this tick's commits
     are already queued on the downstreams. *)
  ack_deferred t;
  (* Write phase, opportunistic: attempt every pending buffer rather than
     only poll's writable set — sockets are rarely full, EAGAIN costs one
     syscall, and batches/acks/replies produced *this* tick get out without
     waiting a poll round. Gated replies stay put. *)
  List.iter
    (fun c ->
      if c.alive && out_pending c > 0 && not (gated t c) then handle_write t c)
    t.conns;
  List.iter
    (fun d ->
      if List.memq d t.downstreams then
        if d_pending d > downstream_out_cap then drop_downstream t d
        else if d_pending d > 0 then handle_downstream_write t d)
    t.downstreams;
  (match t.upstream with
  | Some ({ u_link = Some l; _ } as u) when u_pending u > 0 -> handle_upstream_write t u l
  | _ -> ());
  List.iter
    (fun m -> if List.memq m t.mconns && m_pending m > 0 then handle_metrics_write t m)
    t.mconns;
  sweep_mconns t now;
  update_gauges t

(* Graceful shutdown: stop accepting, flush what's already encoded
   (bounded by [drain_deadline]), abort every session's open transaction,
   release the sockets. Requests still sitting unparsed in input buffers
   are dropped — "in-flight" means a response exists. Semi-sync gating is
   not applied here: a graceful shutdown loses nothing, so holding replies
   hostage to a standby would only strand clients. *)
let drain t =
  close_fd t.listen_fd;
  (match t.repl_listen_fd with Some fd -> close_fd fd | None -> ());
  (match t.metrics_fd with Some fd -> close_fd fd | None -> ());
  List.iter (fun m -> drop_mconn t m) t.mconns;
  (match t.upstream with
  | Some u -> ( match u.u_link with Some l -> close_fd l.Replication.up_fd | None -> ())
  | None -> ());
  let deadline = Unix.gettimeofday () +. drain_deadline in
  let rec flush () =
    (* Buffers may hold replies whose commits are still pending — both from
       the final serve tick and from backpressured frames that a drained
       write just executed ([handle_write] → [process]). Newly encoded
       replies only reach a socket on the {e next} round, so acking at the
       top of every round keeps the reply-after-fsync guarantee through
       shutdown. *)
    ack_deferred t;
    let pending_c = List.filter (fun c -> out_pending c > 0) t.conns in
    let pending_d = List.filter (fun d -> d_pending d > 0) t.downstreams in
    if (pending_c <> [] || pending_d <> []) && Unix.gettimeofday () < deadline then begin
      Poll.clear t.pset;
      List.iter (fun c -> slot_add t (S_conn c) c.fd ~read:false ~write:true) pending_c;
      List.iter (fun d -> slot_add t (S_down d) d.d_fd ~read:false ~write:true) pending_d;
      if Poll.wait t.pset ~timeout_ms:250 > 0 then begin
        let n = Poll.length t.pset in
        for i = 0 to n - 1 do
          if Poll.is_writable (Poll.revents t.pset i) then
            match t.slots.(i) with
            | S_conn c when c.alive -> handle_write t c
            | S_down d when List.memq d t.downstreams -> handle_downstream_write t d
            | _ -> ()
        done
      end;
      flush ()
    end
  in
  flush ();
  List.iter (fun c -> drop t c) t.conns;
  List.iter (fun d -> drop_downstream t d) t.downstreams

let serve t =
  while not t.stop do
    one_iteration t;
    evict_idle t
  done;
  drain t

(* -- construction --------------------------------------------------------- *)

let bind_listener ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 256;
  Unix.set_nonblock fd;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | _ -> assert false

let create ?(host = "127.0.0.1") ?(max_conns = 64) ?(idle_timeout = 300.) ?durability
    ?(group_window = 64) ?repl_port ?metrics_port ?(sync_repl = false) ?replica ~db ~port () =
  Option.iter (Db.set_durability db) durability;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, lport = bind_listener ~host ~port in
  let repl_listen_fd, rport =
    match repl_port with
    | None -> (None, 0)
    | Some p ->
        let fd, p = bind_listener ~host ~port:p in
        (Some fd, p)
  in
  let metrics_fd, mport =
    match metrics_port with
    | None -> (None, 0)
    | Some p ->
        let fd, p = bind_listener ~host ~port:p in
        (Some fd, p)
  in
  let upstream =
    Option.map
      (fun (u_host, u_port, link) ->
        Unix.set_nonblock link.Replication.up_fd;
        {
          u_host;
          u_port;
          u_link = Some link;
          u_out = Buffer.create 64;
          u_out_pos = 0;
          u_retry_at = 0.;
        })
      replica
  in
  let t =
    {
      db;
      listen_fd;
      lport;
      repl_listen_fd;
      rport;
      metrics_fd;
      mport;
      sync_repl;
      max_conns;
      idle_timeout;
      group_window = max 1 group_window;
      read_buf = Bytes.create 65536;
      pset = Poll.create ();
      slots = Array.make 64 S_none;
      idle_q = Queue.create ();
      accept_pause = 0.;
      conns = [];
      mconns = [];
      downstreams = [];
      upstream;
      degraded = false;
      gate_since = None;
      promote_flag = false;
      next_session = 0;
      stop = false;
    }
  in
  (match t.repl_listen_fd with
  | Some _ ->
      Db.set_wal_observer db
        (Some (fun ~data ~from_lsn ~to_lsn -> feed t ~data ~from_lsn ~to_lsn))
  | None -> ());
  (* Health gauges, sampled at scrape time. Registration replaces any prior
     server's sampler of the same name (one live server per process is the
     rule), and a sampler that raises — e.g. over an already-closed
     database in tests — reads as 0 rather than failing the scrape. *)
  Stats.register_gauge "server.connections" (fun () -> List.length t.conns);
  Stats.register_gauge "wal.pending_commits" (fun () -> Db.pending_commits db);
  Stats.register_gauge "store.pool_resident" (fun () -> Db.pool_resident db);
  (* The process's OCaml heap, so memory shows without reading /proc. *)
  Stats.register_gauge "gc.heap_words" (fun () -> (Gc.quick_stat ()).heap_words);
  Stats.register_gauge "gc.top_heap_words" (fun () -> (Gc.quick_stat ()).top_heap_words);
  (* MVCC health: open write txns, registered snapshots, the GC horizon
     (0 when no snapshot pins one) and the dead-version backlog. *)
  Stats.register_gauge "mvcc.active_txns" (fun () -> List.length (Db.open_txns db));
  Stats.register_gauge "mvcc.snapshots" (fun () -> Db.live_snapshots db);
  Stats.register_gauge "mvcc.oldest_snapshot" (fun () ->
      match Db.oldest_snapshot db with Some ts -> ts | None -> 0);
  Stats.register_gauge "mvcc.chains" (fun () -> Db.mvcc_chains db);
  Stats.register_gauge "mvcc.dead_versions" (fun () -> Db.mvcc_dead_versions db);
  Stats.register_gauge "mvcc.reclaimed" (fun () -> Db.mvcc_reclaimed db);
  (* A replica announces its position and drains whatever the primary
     pipelined behind the bootstrap handshake. *)
  (match t.upstream with
  | Some ({ u_link = Some l; _ } as u) ->
      queue_ack t u;
      process_upstream t u l
  | _ -> ());
  t

(* -- fork helper for tests and benchmarks --------------------------------- *)

let spawn_full ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?metrics_port
    ?slow_query_ms ?sync_repl ?replica_of ~db_dir () =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      Unix.close r;
      let rc =
        try
          (* The forked image inherits the parent's process-global counters
             and histograms (a test or bench harness may have accumulated
             thousands of WAL syncs by now). Zero them before opening the
             database so this server's /metrics and .stats describe this
             server — recovery counters bumped by the open below survive. *)
          Ode_util.Stats.reset ();
          ignore (Ode_util.Histogram.rows ~reset:true ());
          let db, replica =
            match replica_of with
            | None -> (Ode.Database.open_ db_dir, None)
            | Some (host, port) ->
                let db, up = Replication.bootstrap ~db_dir ~host ~port () in
                (db, Some (host, port, up))
          in
          Option.iter
            (fun ms ->
              Ode_util.Slowlog.configure
                ~log_path:(Filename.concat db_dir "slow_query.log")
                ~threshold_ms:ms ())
            slow_query_ms;
          (* Role label for trace dumps: a primary's and a standby's dump
             stay distinguishable when merged (same as bin/ode_server). *)
          Ode_util.Trace.set_process_label
            (match replica_of with
            | Some _ -> "ode_server (replica)"
            | None -> "ode_server");
          let t =
            create ?max_conns ?idle_timeout ?durability ?group_window ?repl_port
              ?metrics_port ?sync_repl ?replica ~db ~port:0 ()
          in
          handle_signals t;
          let msg = Printf.sprintf "%d %d %d\n" t.lport t.rport t.mport in
          ignore (Unix.write_substring w msg 0 (String.length msg));
          Unix.close w;
          serve t;
          Ode.Database.close db;
          0
        with _ -> 1
      in
      (* _exit: never run the parent's at_exit handlers in the child. *)
      Unix._exit rc)
  | pid ->
      Unix.close w;
      let buf = Bytes.create 64 in
      let n = Unix.read r buf 0 64 in
      Unix.close r;
      if n <= 0 then failwith "Server.spawn: child died before reporting its ports";
      (match String.split_on_char ' ' (String.trim (Bytes.sub_string buf 0 n)) with
      | [ cp; rp; mp ] -> (pid, int_of_string cp, int_of_string rp, int_of_string mp)
      | _ -> failwith "Server.spawn: malformed port report")

let spawn ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?sync_repl
    ?replica_of ~db_dir () =
  let pid, port, _, _ =
    spawn_full ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?sync_repl
      ?replica_of ~db_dir ()
  in
  (pid, port)
