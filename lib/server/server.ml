(* Serving: one poll(2) event loop on one domain, which owns the sockets,
   the database, the WAL and the group-commit batch scheduler. One
   iteration: poll for readiness, accept what's pending, read what's
   readable (feeding each peer's frame reader), execute complete requests,
   ack, write. Every request runs to completion where it is read, one at a
   time, through [Session.handle], so replies stay in request order and
   transaction semantics are exactly the embedded ones. Sessions interleave
   their transactions on the one domain under MVCC.

   Every socket the loop serves is a [peer]: a client session, a standby
   streaming from us, the link to the primary we stream from, or a metrics
   scraper. All four share one accept, one read, one flush and one [lose],
   under one error rule: EAGAIN/EWOULDBLOCK/EINTR wait, and end of stream
   or any other error loses that peer alone, through its role's lose
   action. What differs by role stays with the role: the handshakes, frame
   processing, the semi-sync gate, the upstream reconnect and the HTTP
   answer.

   The iteration doubles as the group-commit batch scheduler. Replies are
   never written from the read phase — they accumulate in each peer's
   [out] buffer — and between the read phase and the write phase sits the
   ack point: one [Database.sync_commits] covering every autocommit executed
   this tick. So under [Group] durability a reply can only reach the socket
   after the fsync that made its commit durable, while a tick that executed
   N requests paid for one fsync, not N.

   Replication rides the same loop. A primary with a replication port
   keeps a second listener; each connected standby's buffer is fed by the
   WAL observer with every post-fsync batch — the observer fires inside
   [Wal.sync], strictly after the barrier, so a standby can never hold a
   commit the primary could still lose. A replica runs the same loop with a
   [Primary] link instead: batches in (applied between requests, so its
   sessions serve stale-but-consistent queries meanwhile), acks out,
   promotion on [.promote] or SIGUSR1. Under [sync_repl] the write phase
   additionally holds back any reply whose commit no streaming replica has
   acknowledged yet (semi-sync), degrading after a timeout rather than
   blocking writes forever on a dead standby. *)

module Stats = Ode_util.Stats
module Db = Ode.Database

let c_server_accepts = Stats.counter "server.accepts"
let c_server_rejects = Stats.counter "server.rejects"
let c_server_timeouts = Stats.counter "server.timeouts"
let c_server_bytes_in = Stats.counter "server.bytes_in"
let c_server_bytes_out = Stats.counter "server.bytes_out"
let c_server_accept_backoffs = Stats.counter "server.accept_backoffs"
let c_repl_batches_sent = Stats.counter "repl.batches_sent"
let c_repl_bytes_sent = Stats.counter "repl.bytes_sent"
let c_repl_acks = Stats.counter "repl.acks"
let c_repl_resyncs = Stats.counter "repl.resyncs"
let c_repl_sync_degraded = Stats.counter "repl.sync_degraded"
let c_repl_lag_commits = Stats.counter ~kind:Stats.Gauge "repl.lag_commits"
let c_repl_lag_bytes = Stats.counter ~kind:Stats.Gauge "repl.lag_bytes"

type client = {
  mutable session : Session.t option; (* None until the hello is accepted *)
  mutable sent_lsn : int;     (* highest commit LSN this client's buffered
                                 replies acknowledge (semi-sync gate) *)
}

type standby = {
  mutable phase : [ `Magic | `Hello | `Streaming ];
  mutable acked : int;        (* highest LSN it acknowledged; -1 = none yet *)
}

type role =
  | Client of client
  | Standby of standby
  | Primary of upstream       (* the link to the primary we stream from *)
  | Scraper of Buffer.t       (* request bytes until the blank line *)

(* The replica role: where the primary is, and the link while it is up. *)
and upstream = {
  u_host : string;
  u_port : int;
  mutable link : peer option; (* None while reconnecting *)
  mutable retry_at : float;
}

and peer = {
  fd : Unix.file_descr;
  rd : Protocol.reader;       (* frames in (scrapers keep raw bytes instead) *)
  out : Buffer.t;             (* encoded output awaiting the socket *)
  mutable out_pos : int;      (* written prefix of [out] *)
  mutable last : float;       (* last byte received (idle eviction, sweep) *)
  mutable alive : bool;       (* false once lost (the idle queue and the
                                 poll slots hold stale references) *)
  mutable closing : bool;     (* close once [out] drains *)
  mutable blocked : bool;     (* the last write got EAGAIN: wait for POLLOUT *)
  role : role;
}

(* Whom a listener admits. *)
type admits = Clients | Standbys | Scrapers

(* What each poll slot means this tick (index-aligned with [Poll.add]). *)
type slot = S_none | Listener of Unix.file_descr * admits | Peer of peer

type t = {
  db : Ode.Database.t;
  listeners : (Unix.file_descr * admits) list;
  lport : int;
  rport : int;                (* 0 when replication is not served *)
  mport : int;                (* 0 when no metrics endpoint is served *)
  sync_repl : bool;
  max_conns : int;
  idle_timeout : float;
  group_window : int;         (* force a sync once this many commits pend *)
  read_buf : bytes;           (* scratch shared by every socket read *)
  write_buf : bytes;          (* scratch shared by every socket write *)
  pset : Poll.t;
  mutable slots : slot array;
  idle_q : (float * peer) Queue.t; (* (enqueued_at, client), push-time order *)
  mutable accept_pause : float; (* accept failing: no accepts until then *)
  mutable clients : peer list;
  mutable standbys : peer list;
  mutable scrapers : peer list;
  mutable upstream : upstream option; (* Some = replica role *)
  mutable degraded : bool;    (* semi-sync waived until replicas catch up *)
  mutable gate_since : float option; (* oldest unmet semi-sync wait *)
  mutable promote_flag : bool; (* set by SIGUSR1, consumed by the loop *)
  mutable next_session : int;
  mutable stop : bool;
}

(* Stop reading a client once this much response data is backed up;
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

(* How long accepting pauses after a failing accept (EMFILE/ENFILE): long
   enough not to spin on a listener we cannot serve, short enough to pick
   arrivals up as soon as a descriptor frees. *)
let accept_backoff = 0.2

(* Scrapers are few and short-lived; anything past this is a mistake. *)
let max_scrapers = 16
let scraper_idle_timeout = 30.
let max_http_request = 8192

let port t = t.lport
let repl_port t = t.rport
let metrics_port t = t.mport
let connections t = List.length t.clients
let shutdown t = t.stop <- true

let handle_signals t =
  let h = Sys.Signal_handle (fun _ -> shutdown t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h;
  (* Promotion by signal: the handler only sets a flag; the loop promotes
     between iterations. Harmless on a primary. *)
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> t.promote_flag <- true))

let pending p = Buffer.length p.out - p.out_pos
let is_primary t = Option.is_none t.upstream
let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()
let without p = List.filter (fun q -> q != p)

let peer fd rd role =
  {
    fd;
    rd;
    out = Buffer.create 1024;
    out_pos = 0;
    last = Unix.gettimeofday ();
    alive = true;
    closing = false;
    blocked = false;
    role;
  }

(* The one way a peer leaves, whatever the cause: its socket closes, its
   poll slot and idle-queue entry go stale, and its role lets go — a
   client's session rolls back, a standby or scraper leaves its list, and
   a lost primary link is retried from the exact local position. Promotion
   and shutdown end the link on purpose and retry nothing. *)
let lose t p why =
  if p.alive then begin
    p.alive <- false;
    close_fd p.fd;
    match p.role with
    | Client c ->
        Option.iter Session.close c.session;
        t.clients <- without p t.clients
    | Standby _ -> t.standbys <- without p t.standbys
    | Scraper _ -> t.scrapers <- without p t.scrapers
    | Primary u ->
        u.link <- None;
        if not (is_primary t || t.stop) then begin
          Stats.incr c_repl_resyncs;
          u.retry_at <- Unix.gettimeofday () +. 1.0;
          Printf.eprintf "replication: upstream lost (%s); retrying\n%!" why
        end
  end

let iter_peers t f =
  List.iter f t.clients;
  List.iter f t.standbys;
  (match t.upstream with Some { link = Some p; _ } -> f p | _ -> ());
  List.iter f t.scrapers

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

let send_batch p ~from_lsn ~to_lsn data =
  Protocol.encode_repl p.out (Protocol.R_batch (from_lsn, to_lsn, data));
  Stats.incr c_repl_batches_sent;
  Stats.add c_repl_bytes_sent (String.length data)

(* The WAL observer: called inside [Wal.sync] after the barrier, with the
   frames covering commits (from_lsn, to_lsn]. Only enqueues — the sockets
   are serviced by the loop's write phase. *)
let feed t ~data ~from_lsn ~to_lsn =
  List.iter
    (fun p ->
      match p.role with
      | Standby { phase = `Streaming; _ } -> send_batch p ~from_lsn ~to_lsn data
      | _ -> ())
    t.standbys

(* Advance a standby's handshake and consume its acks. Anything malformed
   loses the standby — it resyncs. *)
let process_standby t p d =
  try
    (match d.phase with
    | `Magic -> (
        match Protocol.take p.rd Protocol.repl_hello_len with
        | None -> ()
        | Some s -> (
            match Protocol.parse_repl_hello s with
            | Ok () -> d.phase <- `Hello
            | Error _ -> raise Exit))
    | _ -> ());
    (match d.phase with
    | `Hello -> (
        match Protocol.next_frame p.rd with
        | None -> ()
        | Some body -> (
            match Protocol.decode_repl body with
            | Protocol.R_hello lsn -> (
                (* [answer_hello] may checkpoint and read the data files
                   off disk (snapshot path). The sync inside feeds the
                   *other*, already-streaming standbys — this one only
                   starts receiving batches once marked [`Streaming]
                   below, right after its backlog. *)
                match Replication.answer_hello t.db ~replica_lsn:lsn with
                | Replication.Resume { from_lsn; to_lsn; backlog } ->
                    Protocol.encode_repl p.out (Protocol.R_resume from_lsn);
                    if String.length backlog > 0 then send_batch p ~from_lsn ~to_lsn backlog;
                    (* It proved possession up to [from_lsn]. *)
                    d.acked <- from_lsn;
                    d.phase <- `Streaming
                | Replication.Snapshot { lsn; files } ->
                    Protocol.encode_repl p.out (Protocol.R_snapshot (lsn, files));
                    d.phase <- `Streaming)
            | _ -> raise Exit))
    | _ -> ());
    if d.phase = `Streaming then begin
      let rec acks () =
        match Protocol.next_frame p.rd with
        | None -> ()
        | Some body ->
            (match Protocol.decode_repl body with
            | Protocol.R_ack lsn ->
                Stats.incr c_repl_acks;
                if lsn > d.acked then d.acked <- lsn
            | _ -> raise Exit);
            acks ()
      in
      acks ()
    end
  with Exit | Ode_util.Codec.Corrupt _ -> lose t p "standby protocol error"

(* Highest LSN any streaming replica acknowledged: classic semi-sync wants
   at least one standby holding the commit, not all of them. *)
let best_acked t =
  List.fold_left
    (fun acc p ->
      match p.role with Standby { phase = `Streaming; acked } -> max acc acked | _ -> acc)
    (-1) t.standbys

(* -- replication: replica side ------------------------------------------- *)

let queue_ack t p = Protocol.encode_repl p.out (Protocol.R_ack (Db.lsn t.db))

(* Drain every complete frame buffered from the primary, applying batches
   and queueing an ack per batch. Snapshot reads keep working throughout,
   between batches. *)
let process_upstream t p =
  let rec go () =
    match Protocol.next_frame p.rd with
    | None -> ()
    | Some body ->
        (match Protocol.decode_repl body with
        | Protocol.R_batch (from_lsn, to_lsn, data) ->
            (match Replication.apply_batch t.db ~from_lsn ~to_lsn ~data with
            | `Applied | `Duplicate -> queue_ack t p)
        | _ -> raise (Replication.Resync "unexpected message from primary"));
        go ()
  in
  try go () with Replication.Resync msg | Ode_util.Codec.Corrupt msg -> lose t p msg

(* Take an established link into the loop: announce our position, then
   drain the batches the primary pipelined behind the handshake. *)
let attach t u (link : Replication.upstream) =
  Unix.set_nonblock link.up_fd;
  let p = peer link.up_fd link.up_rd (Primary u) in
  u.link <- Some p;
  queue_ack t p;
  process_upstream t p

(* Re-handshake after a fault. [Replication.reconnect] connects with a
   blocking socket — on loopback a dead primary refuses instantly, so the
   loop stalls only when the primary is reachable but wedged. *)
let try_reconnect t u =
  if Option.is_none u.link && Unix.gettimeofday () >= u.retry_at then
    match Replication.reconnect ~host:u.u_host ~port:u.u_port t.db with
    | Ok link -> attach t u link
    | Error msg ->
        u.retry_at <- Unix.gettimeofday () +. 2.0;
        Printf.eprintf "replication: reconnect failed (%s)\n%!" msg

(* -- promotion and introspection ----------------------------------------- *)

let promote t =
  match t.upstream with
  | None -> Stdlib.Error "not a replica (already primary)"
  | Some u ->
      t.upstream <- None;
      Option.iter (fun p -> lose t p "promoted") u.link;
      Db.set_read_only t.db false;
      Stdlib.Ok (Printf.sprintf "promoted to primary at lsn %d" (Db.lsn t.db))

let replication_report t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (match t.upstream with
  | Some u ->
      add "role           replica of %s:%d (%s)\n" u.u_host u.u_port
        (match u.link with Some _ -> "connected" | None -> "disconnected, retrying")
  | None -> add "role           primary\n");
  add "lsn            %d\n" (Db.lsn t.db);
  add "durable_lsn    %d\n" (Db.durable_lsn t.db);
  if is_primary t then begin
    add "sync_repl      %s%s\n"
      (if t.sync_repl then "on" else "off")
      (if t.degraded then " (degraded)" else "");
    add "replicas       %d\n" (List.length t.standbys);
    let durable = Db.durable_lsn t.db in
    List.iter
      (fun p ->
        match p.role with
        | Standby { phase = `Streaming; acked } when acked >= 0 ->
            add "  streaming    acked %d (lag %d commits, %d bytes queued)\n" acked
              (max 0 (durable - acked))
              (pending p)
        | Standby { phase = `Streaming; _ } ->
            add "  streaming    no ack yet (%d bytes queued)\n" (pending p)
        | _ -> add "  handshaking\n")
      t.standbys
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
    (Db.lsn t.db) (Db.durable_lsn t.db) (connections t)
    (Ode_util.Slowlog.armed ())

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let metrics_answer t req =
  let line =
    match String.index_opt req '\n' with
    | Some i -> String.trim (String.sub req 0 i)
    | None -> String.trim req
  in
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

(* Answer once the request's blank line has arrived; an oversized request
   is hung up on. *)
let scrape t p req =
  if Buffer.length req > max_http_request then lose t p "request too large"
  else if not p.closing then begin
    let s = Buffer.contents req in
    if has_substring s "\r\n\r\n" || has_substring s "\n\n" then begin
      Buffer.add_string p.out (metrics_answer t s);
      p.closing <- true
    end
  end

(* -- semi-sync gate ------------------------------------------------------- *)

let sent_lsn p = match p.role with Client c -> c.sent_lsn | _ -> -1

(* Replies covering commits past what the replicas acknowledged wait in
   their buffers. *)
let gated t p =
  t.sync_repl && is_primary t && (not t.degraded) && sent_lsn p > best_acked t

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
        List.exists (fun p -> pending p > 0 && sent_lsn p > best) t.clients
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
  if t.rport > 0 || not (is_primary t) then begin
    let durable = Db.durable_lsn t.db in
    Stats.set c_repl_lag_commits
      (List.fold_left
         (fun acc p ->
           match p.role with
           | Standby { phase = `Streaming; acked } when acked >= 0 -> max acc (durable - acked)
           | _ -> acc)
         0 t.standbys);
    Stats.set c_repl_lag_bytes (List.fold_left (fun acc p -> acc + pending p) 0 t.standbys)
  end

(* -- clients -------------------------------------------------------------- *)

let client_hello t p c =
  match Protocol.take p.rd Protocol.hello_len with
  | None -> ()
  | Some hello -> (
      match Protocol.parse_hello hello with
      | Ok () ->
          Buffer.add_string p.out (Protocol.hello_reply Accepted);
          t.next_session <- t.next_session + 1;
          c.session <- Some (Session.create ~id:t.next_session t.db)
      | Error _ ->
          (* Version skew or garbage: answer with a parseable rejection and
             hang up. *)
          Stats.incr c_server_rejects;
          Buffer.add_string p.out (Protocol.hello_reply Bad_version);
          p.closing <- true)

(* Execute one request, buffer its reply, track the semi-sync position,
   bound the deferred-durability window. *)
let exec t p c session rq =
  let before = Db.lsn t.db in
  let resp = Session.handle session rq in
  (* Only a request that moved the LSN puts this client under the
     semi-sync gate — reads ride free. *)
  if Db.lsn t.db > before then c.sent_lsn <- Db.lsn t.db;
  Protocol.encode_response p.out resp;
  (* Bound the deferred-durability window: a long batch syncs every
     [group_window] commits rather than once at the end. *)
  if Db.pending_commits t.db >= t.group_window then Db.sync_commits t.db

let run_frames t p c session =
  try
    let rec go () =
      (* Backpressure: leave complete frames buffered while this client's
         responses are backed up. *)
      if pending p < out_cap && not p.closing then
        match Protocol.next_frame p.rd with
        | None -> ()
        | Some body ->
            let rq = Protocol.decode_request body in
            let server_reply =
              match rq.rq_op with Protocol.Dot line -> server_dot t line | _ -> None
            in
            (match server_reply with
            | Some reply ->
                Protocol.encode_response p.out
                  { Protocol.rs_id = rq.rq_id; rs_lsn = Db.lsn t.db; rs_reply = reply }
            | None -> (
                exec t p c session rq;
                match rq.rq_op with Close -> p.closing <- true | _ -> ()));
            go ()
    in
    go ()
  with Ode_util.Codec.Corrupt msg ->
    Protocol.encode_response p.out
      {
        rs_id = 0;
        rs_lsn = Db.lsn t.db;
        rs_reply = Error { cls = Corrupt; msg = "protocol error: " ^ msg };
      };
    p.closing <- true

let process_client t p c =
  if c.session = None then client_hello t p c;
  Option.iter (run_frames t p c) c.session

(* -- the peer path: accept, read, flush ----------------------------------- *)

let nodelay fd = try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let admit t admits fd =
  match admits with
  | Clients ->
      Stats.incr c_server_accepts;
      nodelay fd;
      if connections t >= t.max_conns then begin
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
        let p = peer fd (Protocol.reader ()) (Client { session = None; sent_lsn = -1 }) in
        t.clients <- p :: t.clients;
        if t.idle_timeout > 0. then Queue.push (p.last, p) t.idle_q
      end
  | Standbys ->
      nodelay fd;
      (* A replica does not serve replicas (no cascading) — and a full house
         just hangs up; the standby's bootstrap retries. *)
      if Db.read_only t.db || List.length t.standbys >= max_downstreams then close_fd fd
      else
        let rd = Protocol.reader ~max_len:Protocol.repl_max_frame_len () in
        t.standbys <- peer fd rd (Standby { phase = `Magic; acked = -1 }) :: t.standbys
  | Scrapers ->
      if List.length t.scrapers >= max_scrapers then close_fd fd
      else t.scrapers <- peer fd (Protocol.reader ()) (Scraper (Buffer.create 256)) :: t.scrapers

(* Accept everything pending. Linux reports a pending connection's network
   error from accept(2) itself, to be retried like EAGAIN (EPROTO is 71 and
   ENONET 64 there, which OCaml's [Unix.error] does not name). Any other
   failure — descriptor exhaustion above all — pauses accepting rather
   than spinning on a listener we cannot serve. Existing peers keep
   draining, which is what frees descriptors, and the listeners rejoin the
   poll set once the backoff lapses. *)
let rec accept t lfd admits =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception
      Unix.Unix_error
        ( ( EINTR | ECONNABORTED | ENETDOWN | ENOPROTOOPT | EHOSTDOWN | EHOSTUNREACH
          | EOPNOTSUPP | ENETUNREACH | EUNKNOWNERR (64 | 71) ),
          _,
          _ ) ->
      accept t lfd admits
  | exception Unix.Unix_error (e, _, _) ->
      Stats.incr c_server_accept_backoffs;
      t.accept_pause <- Unix.gettimeofday () +. accept_backoff;
      Printf.eprintf "server: accept: %s; backing off\n%!" (Unix.error_message e)
  | fd, _ ->
      Unix.set_nonblock fd;
      admit t admits fd;
      accept t lfd admits

(* Act on whatever a peer has buffered. Run again once a client's backlog
   drains, for the frames backpressure left waiting. *)
let process t p =
  match p.role with
  | Client c -> process_client t p c
  | Standby d -> process_standby t p d
  | Primary _ -> process_upstream t p
  | Scraper req -> scrape t p req

let read t p =
  match Unix.read p.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> lose t p (Unix.error_message e)
  | 0 -> lose t p "end of stream"
  | n ->
      p.last <- Unix.gettimeofday ();
      (match p.role with
      | Scraper req -> Buffer.add_subbytes req t.read_buf 0 n
      | _ ->
          Stats.add c_server_bytes_in n;
          Protocol.feed p.rd t.read_buf n);
      process t p

(* Bytes one write attempt sends at most. *)
let write_chunk = 65536

let write_out fd out pos scratch =
  let n = min (Buffer.length out - pos) (Bytes.length scratch) in
  Buffer.blit out pos scratch 0 n;
  Unix.write fd scratch 0 n

(* Write a peer's backlog a chunk at a time while the socket takes whole
   chunks: an attempt that gets EAGAIN has copied one chunk, not the
   backlog, and leaves the peer [blocked] until poll reports it
   writable. *)
let rec flush t p =
  match write_out p.fd p.out p.out_pos t.write_buf with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> p.blocked <- true
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> lose t p (Unix.error_message e)
  | n ->
      p.blocked <- false;
      (match p.role with Scraper _ -> () | _ -> Stats.add c_server_bytes_out n);
      p.out_pos <- p.out_pos + n;
      if p.out_pos = Buffer.length p.out then begin
        Buffer.clear p.out;
        p.out_pos <- 0;
        if p.closing then lose t p "closed" else process t p
      end
      else if n = Bytes.length t.write_buf then flush t p

let want_read p =
  (not p.closing) && match p.role with Client _ -> pending p < out_cap | _ -> true

let want_write t p = pending p > 0 && not (gated t p)

(* -- idle eviction -------------------------------------------------------- *)

(* Monotonic last-activity queue: every live client has exactly one entry,
   (re)queued with the wall-clock push time, so entries leave the head in
   push order and each tick pays O(ripe), not O(clients). An entry is
   inspected half a timeout after it was queued: clients that were active
   meanwhile are requeued, stale ones evicted — so eviction lands between
   [idle_timeout] and 1.5x after the last byte. Lost clients' entries are
   dropped lazily ([alive]). *)
let evict_idle t =
  if t.idle_timeout > 0. then begin
    let now = Unix.gettimeofday () in
    let ripe = now -. (t.idle_timeout /. 2.) in
    let rec go () =
      match Queue.peek_opt t.idle_q with
      | Some (enq, p) when enq <= ripe ->
          ignore (Queue.pop t.idle_q);
          if p.alive then
            if now -. p.last > t.idle_timeout then begin
              Stats.incr c_server_timeouts;
              lose t p "idle"
            end
            else Queue.push (now, p) t.idle_q;
          go ()
      | _ -> ()
    in
    go ()
  end

let sweep_scrapers t now =
  List.iter (fun p -> if now -. p.last > scraper_idle_timeout then lose t p "idle") t.scrapers

(* -- the loop ------------------------------------------------------------- *)

(* The ack point. Under [Group] durability every commit prepared this tick
   becomes durable here, before any reply reaches a socket. [Full] commits
   synced eagerly (nothing pends); [Async] chose to reply without waiting,
   its window bounded by [group_window] in [exec] and by checkpoints. *)
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

(* Serve the readable slots of one phase: [`First] takes the listeners,
   the primary link and scrapers, [`Clients] the clients. *)
let read_phase t phase =
  for i = 0 to Poll.length t.pset - 1 do
    if Poll.is_readable (Poll.revents t.pset i) then
      match (phase, t.slots.(i)) with
      | `First, Listener (fd, admits) -> accept t fd admits
      | `First, Peer ({ role = Primary _ | Scraper _; _ } as p)
      | `Clients, Peer ({ role = Client _; _ } as p)
        when p.alive ->
          read t p
      | _ -> ()
  done

(* What this tick's poll found, taken before [gather] re-polls the set:
   the standbys it found readable, returned, and the peers it found
   writable, unblocked (an error or hang-up counts as both, so the next
   write surfaces it). *)
let note_ready t =
  let ready = ref [] in
  for i = 0 to Poll.length t.pset - 1 do
    let ev = Poll.revents t.pset i in
    match t.slots.(i) with
    | Peer p ->
        if Poll.is_writable ev then p.blocked <- false;
        if Poll.is_readable ev then (match p.role with Standby _ -> ready := p :: !ready | _ -> ())
    | _ -> ()
  done;
  !ready

let rec gather t rounds =
  if rounds > 0 then begin
    Poll.clear t.pset;
    List.iter
      (fun p -> if want_read p then slot_add t (Peer p) p.fd ~read:true ~write:false)
      t.clients;
    if Poll.length t.pset > 0 && Poll.wait t.pset ~timeout_ms:0 > 0 then begin
      read_phase t `Clients;
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
  if now >= t.accept_pause then
    List.iter
      (fun (fd, admits) -> slot_add t (Listener (fd, admits)) fd ~read:true ~write:false)
      t.listeners;
  iter_peers t (fun p ->
      let r = want_read p and w = want_write t p in
      if r || w then slot_add t (Peer p) p.fd ~read:r ~write:w);
  (* An accept backoff about to lapse means work is waiting — don't sleep
     a full tick on it. *)
  let timeout_ms = if t.accept_pause > now then 50 else 250 in
  ignore (Poll.wait t.pset ~timeout_ms);
  (* Listeners and the upstream first: accepts and shipped batches applied
     this tick are visible to everything below. *)
  read_phase t `First;
  let acks = note_ready t in
  (* Client reads: feed frame readers, execute complete requests. *)
  read_phase t `Clients;
  gather t gather_rounds;
  (* Standby acks — read before the write phase so the semi-sync gate sees
     them this tick. *)
  List.iter (fun p -> if p.alive then read t p) acks;
  (* Read phase done: everything executed this tick shares one fsync.
     Replies buffered above only hit the sockets below, after it — and the
     fsync fed the observer, so the batches covering this tick's commits
     are already queued on the standbys. *)
  ack_deferred t;
  (* Write phase, opportunistic: attempt every pending buffer rather than
     only poll's writable set — sockets are rarely full, and batches, acks
     and replies produced *this* tick get out without waiting a poll
     round. A peer whose last attempt got EAGAIN waits for poll to report
     it writable instead. Gated replies stay put. *)
  iter_peers t (fun p ->
      if p.alive then
        match p.role with
        | Standby _ when pending p > downstream_out_cap -> lose t p "backlog over the cut-off"
        | _ -> if want_write t p && not p.blocked then flush t p);
  sweep_scrapers t now;
  update_gauges t

(* Graceful shutdown: stop accepting, flush what's already encoded
   (bounded by [drain_deadline]), abort every session's open transaction,
   release the sockets. Requests still sitting unparsed in input buffers
   are dropped — "in-flight" means a response exists. Semi-sync gating is
   not applied here: a graceful shutdown loses nothing, so holding replies
   hostage to a standby would only strand clients. *)
let drain t =
  List.iter (fun (fd, _) -> close_fd fd) t.listeners;
  List.iter (fun p -> lose t p "shutdown") t.scrapers;
  (match t.upstream with Some { link = Some p; _ } -> lose t p "shutdown" | _ -> ());
  let deadline = Unix.gettimeofday () +. drain_deadline in
  let rec flush_all () =
    (* Buffers may hold replies whose commits are still pending — both from
       the final serve tick and from backpressured frames that a drained
       write just executed ([flush] → [process]). Newly encoded
       replies only reach a socket on the {e next} round, so acking at the
       top of every round keeps the reply-after-fsync guarantee through
       shutdown. *)
    ack_deferred t;
    let waiting = List.filter (fun p -> pending p > 0) (t.clients @ t.standbys) in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      Poll.clear t.pset;
      List.iter (fun p -> slot_add t (Peer p) p.fd ~read:false ~write:true) waiting;
      if Poll.wait t.pset ~timeout_ms:250 > 0 then
        for i = 0 to Poll.length t.pset - 1 do
          if Poll.is_writable (Poll.revents t.pset i) then
            match t.slots.(i) with Peer p when p.alive -> flush t p | _ -> ()
        done;
      flush_all ()
    end
  in
  flush_all ();
  List.iter (fun p -> lose t p "shutdown") (t.clients @ t.standbys)

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
  let extra admits = function
    | None -> ([], 0)
    | Some port ->
        let fd, p = bind_listener ~host ~port in
        ([ (fd, admits) ], p)
  in
  let repl, rport = extra Standbys repl_port in
  let metrics, mport = extra Scrapers metrics_port in
  let t =
    {
      db;
      listeners = ((listen_fd, Clients) :: repl) @ metrics;
      lport;
      rport;
      mport;
      sync_repl;
      max_conns;
      idle_timeout;
      group_window = max 1 group_window;
      read_buf = Bytes.create 65536;
      write_buf = Bytes.create write_chunk;
      pset = Poll.create ();
      slots = Array.make 64 S_none;
      idle_q = Queue.create ();
      accept_pause = 0.;
      clients = [];
      standbys = [];
      scrapers = [];
      upstream = None;
      degraded = false;
      gate_since = None;
      promote_flag = false;
      next_session = 0;
      stop = false;
    }
  in
  if repl <> [] then
    Db.set_wal_observer db (Some (fun ~data ~from_lsn ~to_lsn -> feed t ~data ~from_lsn ~to_lsn));
  (* Health gauges, sampled at scrape time. Registration replaces any prior
     server's sampler of the same name (one live server per process is the
     rule), and a sampler that raises — e.g. over an already-closed
     database in tests — reads as 0 rather than failing the scrape. *)
  Stats.register_gauge "server.connections" (fun () -> connections t);
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
  Option.iter
    (fun (u_host, u_port, link) ->
      let u = { u_host; u_port; link = None; retry_at = 0. } in
      t.upstream <- Some u;
      attach t u link)
    replica;
  t

(* -- fork helper for tests and benchmarks --------------------------------- *)

let spawn_full ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?metrics_port
    ?slow_query_ms ?sync_repl ?replica_of ~db_dir () =
  let r, w = Unix.pipe () in
  Stdlib.flush stdout;
  Stdlib.flush stderr;
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
          Ode_util.Histogram.reset_all ();
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
