(* The ODE network server: serve one database directory over TCP.

     ode_server --db mydb                        # port 7764
     ode_server --db mydb --port 0 --port-file p # ephemeral port, written to p
     ode_server --db mydb --max-conns 128 --idle-timeout 60

   Replication:

     ode_server --db pri --repl-port 7765            # primary, serves standbys
     ode_server --db rep --port 7774 \
                --replica-of 127.0.0.1:7765          # warm standby (read-only)

   A standby bootstraps from the primary (WAL resume or snapshot), applies
   the stream, serves read-only queries, and becomes a primary on SIGUSR1
   or the .promote dot command. --sync-repl makes a primary hold each
   client ack until a standby acknowledged the commit (semi-sync).

   SIGINT/SIGTERM trigger a graceful shutdown: pending responses are
   flushed, open transactions rolled back, and the store checkpointed, so
   the directory reopens with nothing to recover. *)

let default_port = 7764

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when host <> "" -> Some (host, port)
      | _ -> None)

let main db_dir port max_conns idle_timeout durability group_window port_file repl_port
    metrics_port metrics_port_file slow_query_ms slow_query_log trace_on sync_repl
    replica_of (_domains : int option) =
  match db_dir with
  | None ->
      prerr_endline "ode_server: --db DIR is required";
      exit 2
  | Some dir ->
      let upstream =
        match replica_of with
        | None -> None
        | Some s -> (
            match parse_host_port s with
            | Some hp -> Some hp
            | None ->
                Printf.eprintf "ode_server: --replica-of wants HOST:PORT, got %s\n" s;
                exit 2)
      in
      let db, replica =
        match upstream with
        | None -> (
            ( (try Ode.Database.open_ dir
               with Ode_util.Codec.Corrupt msg ->
                 Printf.eprintf "ode_server: %s is corrupt: %s\n" dir msg;
                 exit 3),
              None ))
        | Some (host, uport) -> (
            match Ode_served.Replication.bootstrap ~db_dir:dir ~host ~port:uport () with
            | db, up -> (db, Some (host, uport, up))
            | exception Ode_served.Replication.Resync msg ->
                Printf.eprintf "ode_server: bootstrap from %s:%d failed: %s\n" host uport msg;
                exit 3
            | exception Unix.Unix_error (e, _, _) ->
                Printf.eprintf "ode_server: cannot reach primary %s:%d: %s\n" host uport
                  (Unix.error_message e);
                exit 1)
      in
      (match slow_query_ms with
      | Some ms ->
          let log_path =
            match slow_query_log with Some f -> f | None -> Filename.concat dir "slow_query.log"
          in
          Ode_util.Slowlog.configure ~log_path ~threshold_ms:ms ()
      | None -> ());
      if trace_on then begin
        Ode_util.Trace.set_process_label
          (match replica_of with Some _ -> "ode_server (replica)" | None -> "ode_server");
        Ode_util.Trace.set_enabled true
      end;
      let server =
        try
          Ode_served.Server.create ~max_conns ~idle_timeout ~durability ~group_window
            ?repl_port ?metrics_port ~sync_repl ?replica ~db ~port ()
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "ode_server: cannot listen on port %d: %s\n" port
            (Unix.error_message e);
          exit 1
      in
      Ode_served.Server.handle_signals server;
      let bound = Ode_served.Server.port server in
      (match port_file with
      | Some f -> Out_channel.with_open_text f (fun oc -> Printf.fprintf oc "%d\n" bound)
      | None -> ());
      (match metrics_port_file with
      | Some f ->
          Out_channel.with_open_text f (fun oc ->
              Printf.fprintf oc "%d\n" (Ode_served.Server.metrics_port server))
      | None -> ());
      let role =
        match replica with
        | Some (h, p, _) -> Printf.sprintf ", replica of %s:%d" h p
        | None -> (
            match repl_port with
            | Some _ ->
                Printf.sprintf ", replication on port %d%s"
                  (Ode_served.Server.repl_port server)
                  (if sync_repl then " (semi-sync)" else "")
            | None -> "")
      in
      let obs =
        match metrics_port with
        | Some _ ->
            Printf.sprintf ", metrics on port %d" (Ode_served.Server.metrics_port server)
        | None -> ""
      in
      Printf.printf
        "ode_server: serving %s on 127.0.0.1:%d (max %d conns, idle timeout %gs, durability \
         %s, group window %d%s)\n\
         %!"
        dir bound max_conns idle_timeout
        (Ode.Database.durability_name durability)
        group_window (role ^ obs);
      Ode_served.Server.serve server;
      print_endline "ode_server: shutting down";
      Ode.Database.close db;
      exit 0

open Cmdliner

let db_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR" ~doc:"Database directory to serve (created if missing).")

let port =
  Arg.(
    value
    & opt int default_port
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (0 = ephemeral).")

let max_conns =
  Arg.(
    value
    & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Concurrent session limit; extra clients get a busy rejection.")

let idle_timeout =
  Arg.(
    value
    & opt float 300.
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Evict connections idle this long (0 disables).")

let durability =
  let modes =
    Ode.Database.[ ("full", Full); ("group", Group); ("async", Async) ]
  in
  Arg.(
    value
    & opt (enum modes) Ode.Database.Full
    & info [ "durability" ] ~docv:"MODE"
        ~doc:
          "When commits fsync: $(b,full) = at every commit; $(b,group) = one shared fsync \
           per scheduler batch, replies still wait for it; $(b,async) = replies don't wait, \
           loss bounded by the group window.")

let group_window =
  Arg.(
    value
    & opt int 64
    & info [ "group-window" ] ~docv:"N"
        ~doc:"Max commits deferred before a forced fsync under group/async durability.")

let port_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE"
        ~doc:"Write the bound port here once listening (for scripts using --port 0).")

let repl_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "repl-port" ] ~docv:"PORT"
        ~doc:"Also serve the replication stream for standbys on this port (0 = ephemeral).")

let metrics_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve a minimal HTTP observability endpoint on this port (0 = ephemeral): \
           $(b,GET /metrics) is Prometheus text exposition, $(b,GET /metrics.json) the \
           same as JSON, $(b,GET /health) a JSON liveness document with role and LSNs.")

let metrics_port_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-port-file" ] ~docv:"FILE"
        ~doc:"Write the bound metrics port here once listening (for --metrics-port 0).")

let slow_query_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "slow-query-ms" ] ~docv:"MS"
        ~doc:
          "Arm the slow-query log: requests whose execution takes MS milliseconds or \
           more are appended as JSON lines, with the per-plan-node profile for \
           queries. Inspect with the $(b,.slow) dot command.")

let slow_query_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-query-log" ] ~docv:"FILE"
        ~doc:
          "Slow-query log path (default DIR/slow_query.log). Rotated once to FILE.1 when \
           it exceeds 8 MiB.")

let trace_on =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Enable the in-memory span tracer at startup (same as the $(b,.trace on) dot \
           command); dump with $(b,.trace dump FILE).")

let sync_repl =
  Arg.(
    value & flag
    & info [ "sync-repl" ]
        ~doc:
          "Semi-synchronous replication: hold each client ack until a streaming standby \
           acknowledged the commit it covers (degrades, with a counter, if no standby keeps \
           up). Requires $(b,--repl-port).")

let replica_of =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-of" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a warm standby of the primary whose $(b,--repl-port) is HOST:PORT: \
           bootstrap the store from it, apply its WAL stream, serve reads, reject writes. \
           SIGUSR1 or the $(b,.promote) dot command promotes to primary.")

(* Accepted for old command lines and ignored: every request runs on the
   event loop's domain. *)
let domains =
  let at_least_one =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (Printf.sprintf "expected an integer of at least 1, got %s" s)),
        Format.pp_print_int )
  in
  Arg.(
    value
    & opt (some at_least_one) None
    & info [ "domains" ] ~docv:"N"
        ~deprecated:"the server runs every request on one domain; the option does nothing"
        ~doc:"Ignored.")

let cmd =
  let doc = "network server for the ODE object database" in
  Cmd.v
    (Cmd.info "ode_server" ~doc)
    Term.(
      const main $ db_dir $ port $ max_conns $ idle_timeout $ durability $ group_window
      $ port_file $ repl_port $ metrics_port $ metrics_port_file $ slow_query_ms
      $ slow_query_log $ trace_on $ sync_repl $ replica_of $ domains)

let () = exit (Cmd.eval cmd)
