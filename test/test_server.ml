(* End-to-end serving tests over loopback: a forked ode-served event loop
   on a temp database, driven by real protocol clients. Covers concurrent
   sessions (interleaved autocommit + concurrent MVCC explicit transactions
   with first-committer-wins conflicts), idle-timeout eviction, max-conns
   rejection, and graceful shutdown leaving the store recoverable. *)

module Server = Ode_served.Server
module Client = Ode_served.Client
module P = Ode_served.Protocol
module Db = Ode.Database

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Parse "name 123" out of a [.stats]-style dump. *)
let counter_value dump name =
  match String.index_from_opt dump 0 ' ' with
  | _ -> (
      let re_prefix = name ^ " " in
      let rec find i =
        if i + String.length re_prefix > String.length dump then None
        else if String.sub dump i (String.length re_prefix) = re_prefix then Some (i + String.length re_prefix)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some p ->
          let e = ref p in
          while !e < String.length dump && dump.[!e] >= '0' && dump.[!e] <= '9' do incr e done;
          if !e = p then None else Some (int_of_string (String.sub dump p (!e - p))))

(* Run [f client...] against a freshly spawned server; always reap the
   child, even on test failure. Returns the db dir for post-mortems. *)
let with_server ?max_conns ?idle_timeout ?durability ?group_window f =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port = Server.spawn ?max_conns ?idle_timeout ?durability ?group_window ~db_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () -> f port);
  dir

let connect port = Client.connect ~timeout:10. ~host:"127.0.0.1" ~port ()

let schema = "class acct { owner: string; bal: int; }; create cluster acct;"

(* -- basic round trips ---------------------------------------------------- *)

let basic () =
  ignore
    (with_server (fun port ->
         let c = connect port in
         Client.ping c;
         Tutil.check_string "ddl output" "" (Client.exec c schema);
         Tutil.check_string "exec output" "opened 10\n"
           (Client.exec c
              "a := pnew acct { owner = \"ada\", bal = 10 }; print \"opened\", a.bal;");
         (* Query rows render oid + fields. *)
         (match Client.query c "forall x in acct" with
         | [ row ] ->
             Tutil.check_bool "row has owner" true (contains row "owner = \"ada\"");
             Tutil.check_bool "row has bal" true (contains row "bal = 10")
         | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
         (* Errors come back classified, connection stays usable. *)
         (match Client.exec c "forall x in nope { print x; };" with
         | _ -> Alcotest.fail "expected Server_error"
         | exception Client.Server_error { cls; msg } ->
             Tutil.check_bool "a user error" true (cls = User);
             Tutil.check_bool "rendered error" true (contains msg "nope"));
         Client.ping c;
         (* Dot commands run remotely; serving counters are visible. *)
         let stats = Client.dot c ".stats" in
         Tutil.check_bool "server.requests counted" true
           (match counter_value stats "server.requests" with Some n -> n >= 5 | None -> false);
         let hist = Client.dot c ".hist server.request" in
         Tutil.check_bool "request histogram" true (contains hist "server.request count");
         Client.close c))

(* -- 4 concurrent sessions ------------------------------------------------ *)

let concurrent_sessions () =
  ignore
    (with_server (fun port ->
         let cs = Array.init 4 (fun _ -> connect port) in
         Tutil.check_string "schema" "" (Client.exec cs.(0) schema);
         (* Interleaved autocommit writes: each statement is its own
            transaction, sessions take turns round-robin. *)
         for round = 0 to 4 do
           Array.iteri
             (fun i c ->
               ignore
                 (Client.exec c
                    (Printf.sprintf "pnew acct { owner = \"c%d\", bal = %d };" i round)))
             cs
         done;
         (match Client.query cs.(3) "forall x in acct" with
         | rows -> Tutil.check_int "20 interleaved objects" 20 (List.length rows));
         (* Session variables are per-connection. *)
         ignore (Client.exec cs.(0) "secret := 41;");
         Tutil.check_string "own vars visible" "42\n" (Client.exec cs.(0) "print secret + 1;");
         (match Client.exec cs.(1) "print secret;" with
         | _ -> Alcotest.fail "sessions must not share variables"
         | exception Client.Server_error _ -> ());
         (* MVCC: sessions hold explicit transactions concurrently, each on
            its own snapshot, while other sessions keep autocommitting. *)
         ignore (Client.exec cs.(0) "begin; pnew acct { owner = \"uncommitted\", bal = 0 };");
         ignore (Client.exec cs.(1) "begin; pnew acct { owner = \"second\", bal = 0 };");
         ignore (Client.exec cs.(2) "pnew acct { owner = \"not_blocked\", bal = 0 };");
         (* Each holder sees its own uncommitted write plus the autocommit,
            not the other's; snapshots were taken at [begin], before the
            autocommit, so neither sees "not_blocked". *)
         Tutil.check_int "holder 0 sees own write" 21
           (List.length (Client.query cs.(0) "forall x in acct"));
         Tutil.check_int "holder 1 sees own write" 21
           (List.length (Client.query cs.(1) "forall x in acct"));
         ignore (Client.exec cs.(0) "abort;");
         ignore (Client.exec cs.(1) "commit;");
         (* After the dust settles: 20 + autocommit + session 1's commit. *)
         Tutil.check_int "abort rolled back, commit kept" 22
           (List.length (Client.query cs.(3) "forall x in acct"));
         (* The .txns introspection reflects open transactions. *)
         ignore (Client.exec cs.(0) "begin;");
         Tutil.check_bool ".txns reports the open txn" true
           (contains (Client.dot cs.(1) ".txns") "open txns 1");
         ignore (Client.exec cs.(0) "abort;");
         (* Write-write conflict: two explicit transactions race on the
            same object. The loser's commit comes back as the retryable
            conflict; spread over several requests the client's automatic
            replay (of the commit request alone) cannot win, so it
            surfaces as a [Client.Server_error] of class [Conflict] — and
            a whole-transaction replay in one request then lands. *)
         ignore (Client.exec cs.(2) "t := pnew acct { owner = \"hot\", bal = 0 };");
         ignore (Client.exec cs.(0) "forall x in acct suchthat x.owner = \"hot\" { r := x; };");
         ignore (Client.exec cs.(1) "forall x in acct suchthat x.owner = \"hot\" { r := x; };");
         ignore (Client.exec cs.(1) "begin;");
         ignore (Client.exec cs.(1) "r.bal := r.bal + 10;");
         (* Session 0 commits the same object first, in one request. *)
         ignore (Client.exec cs.(0) "begin; r.bal := r.bal + 100; commit;");
         (match Client.exec cs.(1) "commit;" with
         | _ -> Alcotest.fail "losing commit must conflict"
         | exception Client.Server_error { cls = Conflict; msg } ->
             Tutil.check_bool "conflict names the object" true (contains msg "conflict"));
         (* Replayed as one self-contained request, the transaction reads
            the winner's state and applies cleanly. *)
         ignore (Client.exec cs.(1) "begin; r.bal := r.bal + 10; commit;");
         Tutil.check_string "both increments landed" "110\n"
           (Client.exec cs.(2)
              "forall x in acct suchthat x.owner = \"hot\" { print x.bal; };");
         (* Pipelined, a losing commit is replayed once the batch has
            drained, loses again (a bare [commit;] re-reports the
            conflict), and comes back with its class; the entry behind it
            runs. *)
         ignore (Client.exec cs.(1) "begin; r.bal := r.bal + 1;");
         ignore (Client.exec cs.(0) "begin; r.bal := r.bal + 1; commit;");
         (match Client.exec_many cs.(1) [ "commit;"; "print 7;" ] with
         | [ Error { cls = Conflict; _ }; Ok "7\n" ] -> ()
         | _ -> Alcotest.fail "a pipelined conflict lost its class");
         Array.iter Client.close cs))

(* -- MVCC write storm under a pinned snapshot ------------------------------ *)

(* [writers] forked clients each run [per_writer] increments of an account
   balance, one in three on a hot account. Each transaction is spread over
   three requests, so snapshots really overlap on the server; a loser's
   [commit;] surfaces as a [Client.Server_error] of class [Conflict] and
   the client replays the whole transaction as one request. One session holds a snapshot across
   the storm. Counted outcomes: every increment lands exactly once, the
   pinned read does not move, the long transaction's disjoint write still
   commits, and conflicts stay bounded. *)
let mvcc_write_storm () =
  let writers = 3 and per_writer = 40 and n_accts = 16 in
  let held = 1000 in
  let issued = writers * per_writer in
  let conflicts = ref 0 in
  let dir =
    with_server (fun port ->
        let ctl = connect port in
        ignore (Client.exec ctl "class acct { id: int; bal: int; }; create cluster acct;");
        List.iter
          (function Ok _ -> () | Error (e : Ode_util.Ode_error.t) -> Alcotest.failf "load: %s" e.msg)
          (Client.exec_many ctl
             (List.map
                (fun i -> Printf.sprintf "pnew acct { id = %d, bal = 0 };" i)
                (held :: List.init n_accts Fun.id)));
        ignore (Client.dot ctl ".stats reset");
        let holder = connect port in
        ignore (Client.exec holder "begin;");
        let pinned () =
          Client.query holder (Printf.sprintf "forall a in acct suchthat a.id < %d" n_accts)
        in
        let before = pinned () in
        ignore
          (Client.exec holder
             (Printf.sprintf "forall a in acct suchthat a.id == %d { a.bal := a.bal + 1; };" held));
        let spawn_writer w =
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 ->
              let errors = ref 0 in
              (try
                 let c = Client.connect ~timeout:10. ~retries:0 ~host:"127.0.0.1" ~port () in
                 let rng = Ode_util.Prng.create (2450 + w) in
                 for _ = 1 to per_writer do
                   let id = if Ode_util.Prng.int rng 3 = 0 then 0 else Ode_util.Prng.int rng n_accts in
                   let incr_ =
                     Printf.sprintf "forall a in acct suchthat a.id == %d { a.bal := a.bal + 1; };" id
                   in
                   try
                     ignore (Client.exec c "begin;");
                     ignore (Client.exec c incr_);
                     ignore (Client.exec c "commit;")
                   with Client.Server_error { cls = Conflict; _ } ->
                     ignore (Client.exec c ("begin; " ^ incr_ ^ " commit;"))
                 done;
                 Client.close c
               with _ -> errors := 100);
              Unix._exit (min 100 !errors)
          | pid -> pid
        in
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _, Unix.WEXITED n -> Alcotest.failf "writer reported %d errors" n
            | _ -> Alcotest.fail "writer died abnormally")
          (List.init writers spawn_writer);
        Tutil.check_string_list "pinned read unchanged by the storm" before (pinned ());
        ignore (Client.exec holder "commit;");
        Client.close holder;
        (match counter_value (Client.dot ctl ".stats") "txn.conflicts" with
        | Some n -> conflicts := n
        | None -> Alcotest.fail "no txn.conflicts in stats");
        Client.close ctl)
  in
  if !conflicts > 3 * issued then
    Alcotest.failf "%d conflicts for %d transactions (more than 3 each)" !conflicts issued;
  let db = Db.open_ dir in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after storm: %s" (String.concat "; " ps));
  let bal id =
    Db.with_txn db (fun txn ->
        List.fold_left
          (fun acc oid ->
            match (Db.get_field txn oid "id", Db.get_field txn oid "bal") with
            | Ode_model.Value.Int i, Ode_model.Value.Int b when id i -> acc + b
            | _ -> acc)
          0
          (Ode.Query.to_list db ~txn ~var:"x" ~cls:"acct" ()))
  in
  Tutil.check_int "every increment landed exactly once" issued (bal (fun i -> i < n_accts));
  Tutil.check_int "the long transaction's disjoint write committed" 1 (bal (( = ) held))

(* -- idle-timeout eviction ------------------------------------------------ *)

let idle_eviction () =
  ignore
    (with_server ~idle_timeout:0.4 (fun port ->
         let c = connect port in
         ignore (Client.exec c schema);
         (* Park an open explicit transaction and go idle past the limit. *)
         ignore (Client.exec c "begin; pnew acct { owner = \"ghost\", bal = 1 };");
         Unix.sleepf 1.2;
         (* The server hung up; the client reconnects once, transparently,
            into a fresh session. *)
         Client.ping c;
         (* Eviction rolled the parked transaction back and was counted. *)
         Tutil.check_int "evicted txn rolled back" 0
           (List.length (Client.query c "forall x in acct"));
         let stats = Client.dot c ".stats" in
         Tutil.check_bool "timeout counted" true
           (match counter_value stats "server.timeouts" with Some n -> n >= 1 | None -> false);
         Client.close c))

(* -- max-conns rejection -------------------------------------------------- *)

let busy_rejection () =
  ignore
    (with_server ~max_conns:2 (fun port ->
         let c1 = connect port in
         let c2 = connect port in
         Client.ping c1;
         Client.ping c2;
         (match connect port with
         | _ -> Alcotest.fail "third client must be rejected"
         | exception Client.Rejected msg ->
             Tutil.check_bool "friendly busy message" true (contains msg "busy"));
         (* Rejection is counted, and the slot frees once a client leaves. *)
         let stats = Client.dot c1 ".stats" in
         Tutil.check_bool "reject counted" true
           (match counter_value stats "server.rejects" with Some n -> n >= 1 | None -> false);
         Client.close c2;
         let rec retry_connect n =
           match connect port with
           | c -> c
           | exception Client.Rejected _ when n > 0 ->
               Unix.sleepf 0.1;
               retry_connect (n - 1)
         in
         let c4 = retry_connect 20 in
         Client.ping c4;
         Client.close c4;
         Client.close c1))

(* -- graceful shutdown leaves the store recoverable ----------------------- *)

let graceful_shutdown () =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port = Server.spawn ~db_dir:dir () in
  let c = connect port in
  ignore (Client.exec c schema);
  ignore (Client.exec c "pnew acct { owner = \"durable\", bal = 100 };");
  (* Leave an explicit transaction open across the shutdown. *)
  ignore (Client.exec c "begin; pnew acct { owner = \"doomed\", bal = -1 };");
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Tutil.check_bool "clean exit" true (status = Unix.WEXITED 0);
  (* Reopen the directory: the open transaction was aborted, the committed
     state survived, and the integrity checker is happy. *)
  let db = Db.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after shutdown: %s" (String.concat "; " ps));
  Tutil.check_int "only the committed object survives" 1
    (Ode.Query.count db ~var:"x" ~cls:"acct" ());
  Db.close db;
  (try Client.close c with _ -> ())

(* -- group commit: shared fsync across concurrent autocommits ------------- *)

(* One connection pipelines [n] autocommits through [Client.exec_many] at
   [durability]; returns the server's [wal_syncs] over that load. The
   server is then stopped with SIGTERM and must exit cleanly, and the
   reopened store must pass [Verify] and hold every row. *)
let pipelined_syncs durability n =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port = Server.spawn ~durability ~db_dir:dir () in
  let mode = Db.durability_name durability in
  let syncs =
    Fun.protect
      ~finally:(fun () -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      (fun () ->
        let c = connect port in
        ignore (Client.exec c schema);
        ignore (Client.dot c ".stats reset");
        List.iter
          (function
            | Ok _ -> ()
            | Error (e : Ode_util.Ode_error.t) -> Alcotest.failf "%s: pipelined commit: %s" mode e.msg)
          (Client.exec_many c
             (List.init n (fun i -> Printf.sprintf "pnew acct { owner = \"p%d\", bal = %d };" i i)));
        let syncs = counter_value (Client.dot c ".stats") "wal_syncs" in
        Client.close c;
        match syncs with Some n -> n | None -> Alcotest.failf "%s: no wal_syncs in stats" mode)
  in
  let _, status = Unix.waitpid [] pid in
  Tutil.check_bool (mode ^ ": clean exit") true (status = Unix.WEXITED 0);
  let db = Db.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "%s: verify after shutdown: %s" mode (String.concat "; " ps));
  Tutil.check_int (mode ^ ": every pipelined row durable") n
    (Ode.Query.count db ~var:"x" ~cls:"acct" ());
  Db.close db;
  syncs

(* 4 client processes hammer autocommit writes at a [Group]-durability
   server. Every reply is a durable commit (acked after the batch fsync),
   yet the server must have paid far fewer than one fsync per commit: the
   scheduler batches whatever arrived in a tick under one [Wal.sync], and
   [wal_sync_saved] counts exactly the fsyncs the batching avoided. Then
   one pipelined connection per durability level: [group] must stay at or
   under half a sync per commit (a per-commit fsync reads 1.0), [full]
   must sync every commit, and no level may lose a row. *)
let group_commit_batching () =
  let clients = 4 and per_client = 40 in
  ignore
    (with_server ~durability:Db.Group (fun port ->
         let control = connect port in
         Tutil.check_string "schema" "" (Client.exec control schema);
         let spawn_writer i =
           flush stdout;
           flush stderr;
           match Unix.fork () with
           | 0 ->
               let errors = ref 0 in
               (try
                  let c = connect port in
                  for n = 0 to per_client - 1 do
                    try
                      ignore
                        (Client.exec c
                           (Printf.sprintf "pnew acct { owner = \"w%d\", bal = %d };" i n))
                    with _ -> incr errors
                  done;
                  Client.close c
                with _ -> errors := 100);
               Unix._exit (min 100 !errors)
           | pid -> pid
         in
         let pids = List.init clients spawn_writer in
         List.iter
           (fun pid ->
             match Unix.waitpid [] pid with
             | _, Unix.WEXITED 0 -> ()
             | _, Unix.WEXITED n -> Alcotest.failf "writer reported %d errors" n
             | _ -> Alcotest.fail "writer died abnormally")
           pids;
         let commits = clients * per_client in
         Tutil.check_int "every autocommit visible" commits
           (List.length (Client.query control "forall x in acct"));
         let stats = Client.dot control ".stats" in
         let counter name =
           match counter_value stats name with
           | Some n -> n
           | None -> Alcotest.failf "no %s in stats dump" name
         in
         (* Batching happened: at least one tick held 2+ commits under one
            fsync, and the sync total stayed below one-per-commit. *)
         Tutil.check_bool "some shared fsyncs" true (counter "wal_sync_saved" >= 1);
         Tutil.check_bool "syncs sublinear in commits" true (counter "wal_syncs" < commits);
         let hist = Client.dot control ".hist wal.group_size" in
         Tutil.check_bool "group size histogram populated" true
           (contains hist "wal.group_size count");
         Client.close control));
  let n = 200 in
  let per_commit durability = float (pipelined_syncs durability n) /. float n in
  let group = per_commit Db.Group in
  if group > 0.5 then
    Alcotest.failf "group: %.3f wal syncs per commit (a per-commit fsync reads 1.0)" group;
  let full = per_commit Db.Full in
  if full < 1.0 then Alcotest.failf "full: %.3f wal syncs per commit, fewer than one" full;
  ignore (per_commit Db.Async)

(* -- acked means durable: SIGKILL after replies, nothing may be lost ------ *)

let group_kill9_durability () =
  let n = 30 in
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port = Server.spawn ~durability:Db.Group ~db_dir:dir () in
  let c = connect port in
  ignore (Client.exec c schema);
  for i = 0 to n - 1 do
    ignore (Client.exec c (Printf.sprintf "pnew acct { owner = \"k%d\", bal = %d };" i i))
  done;
  (* Every exec above was replied to, so its commit must already be on disk:
     the scheduler fsyncs before flushing replies. SIGKILL — no shutdown
     path, no drain, no checkpoint. *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (try Client.close c with _ -> ());
  let db = Db.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after kill -9: %s" (String.concat "; " ps));
  Tutil.check_int "all acked commits survive kill -9" n
    (Ode.Query.count db ~var:"x" ~cls:"acct" ());
  Db.close db

(* -- beyond select's FD_SETSIZE: >1024 live connections ------------------- *)

(* The poll-based loop has no 1024-descriptor ceiling: hold 1100 sessions
   open at once, serve them all, and see the accept counter agree. *)
let thousand_plus_connections () =
  let n = 1100 in
  ignore
    (with_server ~max_conns:1500 ~idle_timeout:120. (fun port ->
         let cs = Array.init n (fun _ -> connect port) in
         Tutil.check_string "schema over conn 0" "" (Client.exec cs.(0) schema);
         ignore (Client.exec cs.(0) "pnew acct { owner = \"many\", bal = 1 };");
         (* Every one of the 1100 concurrently-open sessions is live. *)
         Array.iter Client.ping cs;
         Tutil.check_int "query over the last conn" 1
           (List.length (Client.query cs.(n - 1) "forall x in acct"));
         let stats = Client.dot cs.(0) ".stats" in
         Tutil.check_bool "accepts counted past 1024" true
           (match counter_value stats "server.accepts" with
           | Some v -> v >= n
           | None -> false);
         Array.iter Client.close cs))

(* -- parallel queries, funneled writes ------------------------------------ *)

(* Concurrent reader processes stream queries while the parent keeps
   writing. Every query reply must be a consistent snapshot (row count only
   ever grows), writes all land, and explicit transactions from several
   sessions coexist on stable snapshots. *)
let parallel_queries_e2e () =
  let readers = 3 and queries_per_reader = 120 in
  ignore
    (with_server (fun port ->
         let control = connect port in
         Tutil.check_string "schema" "" (Client.exec control schema);
         for i = 0 to 19 do
           ignore
             (Client.exec control
                (Printf.sprintf "pnew acct { owner = \"pre%d\", bal = %d };" i i))
         done;
         let spawn_reader id =
           flush stdout;
           flush stderr;
           match Unix.fork () with
           | 0 ->
               let errors = ref 0 in
               (try
                  let c = connect port in
                  let last = ref 20 in
                  for _ = 1 to queries_per_reader do
                    Client.ping c;
                    let rows = List.length (Client.query c "forall x in acct") in
                    (* Snapshots are consistent and monotone: never torn
                       mid-write, never going backwards. *)
                    if rows < !last || rows > 40 then incr errors;
                    last := max !last rows
                  done;
                  Client.close c
                with _ -> errors := 100 + id);
               Unix._exit (min 120 !errors)
           | pid -> pid
         in
         let pids = List.init readers spawn_reader in
         for i = 20 to 39 do
           ignore
             (Client.exec control
                (Printf.sprintf "pnew acct { owner = \"mid%d\", bal = %d };" i i))
         done;
         List.iter
           (fun pid ->
             match Unix.waitpid [] pid with
             | _, Unix.WEXITED 0 -> ()
             | _, Unix.WEXITED e -> Alcotest.failf "reader process reported %d errors" e
             | _ -> Alcotest.fail "reader process died abnormally")
           pids;
         Tutil.check_int "all writes landed" 40
           (List.length (Client.query control "forall x in acct"));
         (* Explicit transactions from several sessions coexist: while
            [control] holds one open, another session's begin succeeds and
            autocommitted queries see a stable snapshot that excludes both
            sessions' uncommitted writes. *)
         let c2 = connect port in
         let c3 = connect port in
         ignore (Client.exec control "begin; pnew acct { owner = \"held\", bal = 0 };");
         ignore (Client.exec c2 "begin; pnew acct { owner = \"held2\", bal = 0 };");
         Tutil.check_int "reader sees neither uncommitted write" 40
           (List.length (Client.query c3 "forall x in acct"));
         ignore (Client.exec control "abort;");
         (* Queries inside an explicit transaction see the transaction's
            own uncommitted writes. *)
         Tutil.check_int "txn query sees own write" 41
           (List.length (Client.query c2 "forall x in acct"));
         ignore (Client.exec c2 "abort;");
         (* A transaction's snapshot is stable mid-write: a commit from
            another session after [begin] stays invisible until the
            transaction ends (the committed row is undone through the
            version chains on read). *)
         ignore (Client.exec c2 "begin;");
         Tutil.check_int "snapshot taken at begin" 40
           (List.length (Client.query c2 "forall x in acct"));
         ignore (Client.exec control "pnew acct { owner = \"leak\", bal = 1 };");
         Tutil.check_int "foreign commit invisible mid-txn" 40
           (List.length (Client.query c2 "forall x in acct"));
         ignore (Client.exec c2 "commit;");
         Tutil.check_int "visible once the txn ends" 41
           (List.length (Client.query c2 "forall x in acct"));
         Client.close c3;
         let stats = Client.dot control ".stats" in
         Tutil.check_bool "requests counted" true
           (match counter_value stats "server.requests" with
           | Some v -> v >= readers * 2 * queries_per_reader
           | None -> false);
         Client.close c2;
         Client.close control))

(* -- queries that call methods --------------------------------------------- *)

(* An autocommitted query runs in a detached read-only transaction. No
   method can write: a method body is an expression, and [setroot], the
   one writing builtin, is a statement — a method that names it fails when
   called. So a served query that calls methods answers from its snapshot
   and writes nothing. *)
let served_method_query () =
  ignore
    (with_server (fun port ->
         let c = connect port in
         ignore
           (Client.exec c
              "class purse { bal: int; method rich(): bool = this.bal > 5; method poke(): int = \
               setroot(\"x\", this.bal); }; create cluster purse;");
         for i = 0 to 9 do
           ignore (Client.exec c (Printf.sprintf "pnew purse { bal = %d };" i))
         done;
         let rows = Client.query c "forall x in purse suchthat x.rich() by x.bal" in
         Tutil.check_int "rich rows" 4 (List.length rows);
         List.iteri
           (fun i row ->
             Tutil.check_bool "row in order" true (contains row (Printf.sprintf "bal = %d" (6 + i))))
           rows;
         (match Client.exec c "forall x in purse { print x.poke(); };" with
         | _ -> Alcotest.fail "a method naming setroot answered"
         | exception Client.Server_error { cls = User; msg } ->
             Tutil.check_bool "unknown function" true (contains msg "setroot"));
         ignore (Client.query c "forall x in purse suchthat x.poke() == 1");
         Tutil.check_bool "no root written" true
           (Client.exec c "print getroot(\"x\");" = "null\n");
         Tutil.check_int "population unchanged" 10 (List.length (Client.query c "forall x in purse"));
         Client.close c))

(* A method that calls itself without end meets the interpreter's depth
   bound: its client gets a user error, and a query from another
   connection, sent while the runaway request is on its way, is answered
   after it. *)
let runaway_recursion_served () =
  ignore
    (with_server (fun port ->
         let c = connect port in
         ignore
           (Client.exec c
              "class r { v: int; method f(): int = this.f(); }; create cluster r; pnew r { v = 1 };");
         flush stdout;
         flush stderr;
         let child =
           match Unix.fork () with
           | 0 ->
               let code =
                 try
                   let a = connect port in
                   match Client.exec a "forall x in r { print x.f(); };" with
                   | _ -> 1
                   | exception Client.Server_error { cls = User; _ } -> 0
                 with _ -> 2
               in
               Unix._exit code
           | pid -> pid
         in
         let t0 = Unix.gettimeofday () in
         Tutil.check_int "other client answered" 1 (List.length (Client.query c "forall x in r"));
         Tutil.check_bool "promptly" true (Unix.gettimeofday () -. t0 < 5.);
         (match Unix.waitpid [] child with
         | _, Unix.WEXITED 0 -> ()
         | _, Unix.WEXITED e -> Alcotest.failf "runaway client exited %d" e
         | _ -> Alcotest.fail "runaway client died");
         Client.close c))

(* -- observability: /metrics endpoint, /health, slow-query log ------------ *)

(* One-shot HTTP GET against the metrics listener: write the request line,
   read to EOF (the server answers exactly one request and closes). *)
let http_get port path =
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

(* The body of an HTTP response: everything after the header separator. *)
let http_body resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let p = find 0 in
  String.sub resp p (String.length resp - p)

(* A server with the metrics endpoint bound and the slow-query
   log armed at 0 ms (every request logs). Drive real load, then assert the
   whole observability surface: a parseable Prometheus scrape with counters,
   gauges and latency quantiles; the health document; 404s; the JSON twin;
   and a slow-query log whose entries carry trace ids, execute times and
   per-plan-node profiles — also visible via [.slow]. *)
let observability_endpoint () =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port, _, mport =
    Server.spawn_full ~metrics_port:0 ~slow_query_ms:0 ~db_dir:dir ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let c = connect port in
      Tutil.check_string "schema" "" (Client.exec c schema);
      for i = 0 to 9 do
        ignore (Client.exec c (Printf.sprintf "pnew acct { owner = \"m%d\", bal = %d };" i i))
      done;
      for _ = 1 to 5 do
        ignore (Client.query c "forall x in acct")
      done;
      (match Client.exec c "print nosuchvar;" with
      | _ -> Alcotest.fail "an unbound variable printed"
      | exception Client.Server_error { cls = User; _ } -> ());
      let resp = http_get mport "/metrics" in
      Tutil.check_bool "scrape is 200" true (contains resp "200 OK");
      Tutil.check_bool "prometheus content type" true
        (contains resp "text/plain; version=0.0.4");
      let body = http_body resp in
      Tutil.check_bool "requests counter exposed" true (contains body "ode_server_requests");
      Tutil.check_bool "counter TYPE line" true
        (contains body "# TYPE ode_server_requests counter");
      Tutil.check_bool "repl lag gauge exposed" true (contains body "ode_repl_lag_commits");
      Tutil.check_bool "connections gauge exposed" true (contains body "ode_server_connections");
      Tutil.check_bool "latency quantiles exposed" true (contains body "quantile=\"0.5\"");
      Tutil.check_bool "errors counted by class" true
        (contains body "ode_errors_user 1\n" && contains body "ode_errors_internal 0\n");
      (* The OCaml heap gauges read a live, nonzero heap. *)
      List.iter
        (fun name ->
          let sample =
            List.find_opt
              (fun line -> String.starts_with ~prefix:(name ^ " ") line)
              (String.split_on_char '\n' body)
          in
          match sample with
          | None -> Alcotest.failf "gauge %s missing" name
          | Some line ->
              let v = String.sub line (String.length name + 1) (String.length line - String.length name - 1) in
              Tutil.check_bool (name ^ " > 0") true (float_of_string v > 0.))
        [ "ode_gc_heap_words"; "ode_gc_top_heap_words" ];
      (* Every sample line must end in a number a scraper can parse. *)
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.rindex_opt line ' ' with
            | None -> Alcotest.failf "unparseable sample line: %s" line
            | Some i -> (
                match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                | Some _ -> ()
                | None -> Alcotest.failf "non-numeric sample value in: %s" line))
        (String.split_on_char '\n' body);
      let h = http_body (http_get mport "/health") in
      Tutil.check_bool "health: primary role" true (contains h "\"role\":\"primary\"");
      Tutil.check_bool "health: nonzero lsn" false (contains h "\"lsn\":0,");
      Tutil.check_bool "health: slow log armed" true (contains h "\"slow_log_armed\":true");
      Tutil.check_bool "unknown path 404s" true (contains (http_get mport "/nope") "404");
      let j = http_body (http_get mport "/metrics.json") in
      Tutil.check_bool "json scrape has counters" true (contains j "\"counters\"");
      Tutil.check_bool "json scrape has histograms" true (contains j "\"histograms\"");
      let log =
        In_channel.with_open_text (Filename.concat dir "slow_query.log") In_channel.input_all
      in
      Tutil.check_bool "slow log carries trace ids" true (contains log "\"trace\":");
      Tutil.check_bool "slow log times execution" true (contains log "\"exec_ns\":");
      Tutil.check_bool "slow log has plan profiles" true (contains log "\"profile\":");
      Tutil.check_bool "slow log names the statement" true (contains log "forall x in acct");
      Tutil.check_bool "slow log classes an error" true
        (List.exists
           (fun l -> contains l "print nosuchvar;" && contains l "\"error\":\"user\"")
           (String.split_on_char '\n' log));
      let slow = Client.dot c ".slow 3" in
      Tutil.check_bool ".slow shows retained entries" true (contains slow "\"exec_ns\":");
      let mj = Client.dot c ".metrics json" in
      Tutil.check_bool ".metrics json over the wire" true (contains mj "\"gauges\"");
      Client.close c)

(* -- raw peers: backpressure and malformed openings ------------------------ *)

let raw_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* A server that neither answers nor hangs up fails the test, not the run. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  fd

let rec write_all fd s pos =
  if pos < String.length s then
    match Unix.write_substring fd s pos (String.length s - pos) with
    | n -> write_all fd s (pos + n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s pos

(* Everything the server sends until it hangs up; a reset counts as the
   hang-up (the server may close with our bytes still unread). *)
let read_to_eof fd =
  let b = Buffer.create 64 and buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        Alcotest.fail "the server neither answered nor hung up"
  in
  go ();
  Buffer.contents b

(* A client that pipelines far past the server's 1 MiB reply backlog
   without reading: the server stops reading it, answers a second client
   meanwhile, and once the first client reads, every reply arrives, in
   order — the frames left buffered by backpressure run as the backlog
   drains. *)
let pipelined_past_out_cap () =
  ignore
    (with_server (fun port ->
         let fd = raw_connect port in
         Fun.protect
           ~finally:(fun () -> Unix.close fd)
           (fun () ->
             write_all fd P.hello 0;
             let rd = P.reader () and buf = Bytes.create 65536 in
             let rec fill () =
               match Unix.read fd buf 0 (Bytes.length buf) with
               | 0 -> Alcotest.fail "the server hung up"
               | n -> P.feed rd buf n
               | exception Unix.Unix_error (EINTR, _, _) -> fill ()
             in
             let rec take n =
               match P.take rd n with
               | Some s -> s
               | None ->
                   fill ();
                   take n
             in
             Tutil.check_string "accepted" (P.hello_reply P.Accepted) (take P.hello_reply_len);
             let big = String.make (256 * 1024) 'x' and n = 128 in
             let b = Buffer.create 4096 in
             P.encode_request b
               { rq_id = 1; rq_trace = 0; rq_op = Exec (Printf.sprintf "s := \"%s\";" big) };
             for i = 2 to n + 1 do
               P.encode_request b { rq_id = i; rq_trace = 0; rq_op = Exec "print s;" }
             done;
             write_all fd (Buffer.contents b) 0;
             Unix.sleepf 0.5;
             let c = connect port in
             Client.ping c;
             Tutil.check_string "second client answered" "2\n" (Client.exec c "print 1 + 1;");
             Client.close c;
             let rec frame () =
               match P.next_frame rd with
               | Some body -> P.decode_response body
               | None ->
                   fill ();
                   frame ()
             in
             for i = 1 to n + 1 do
               let rs = frame () in
               Tutil.check_int "replies in request order" i rs.rs_id;
               let want = if i = 1 then "" else big ^ "\n" in
               Tutil.check_bool (Printf.sprintf "reply %d complete" i) true
                 (rs.rs_reply = P.Output want)
             done)))

(* A client that stops reading with a full reply backlog costs only
   itself: another client's pings beside it keep a median within 1.5x of
   their median alone. Each tick's write attempt on the stalled socket
   copies at most one 64 KiB chunk, not its whole backlog. The two are
   taken in three alternating rounds, the stalled connection opened,
   filled and closed within each, and the rule holds between the medians
   of the rounds' medians, so one slow stretch of a loaded host does not
   decide it. *)
let stalled_reader_costs_only_itself () =
  ignore
    (with_server (fun port ->
         let c = connect port in
         let median () =
           let samples =
             Array.init 2000 (fun _ ->
                 let t0 = Unix.gettimeofday () in
                 Client.ping c;
                 Unix.gettimeofday () -. t0)
           in
           Array.sort compare samples;
           samples.(1000)
         in
         (* [median ()] beside a connection whose replies back up unread. *)
         let beside_stalled () =
           let fd = raw_connect port in
           Fun.protect
             ~finally:(fun () -> Unix.close fd)
             (fun () ->
               write_all fd P.hello 0;
               let b = Buffer.create 4096 in
               P.encode_request b
                 {
                   rq_id = 1;
                   rq_trace = 0;
                   rq_op = Exec (Printf.sprintf "s := \"%s\";" (String.make (256 * 1024) 'x'));
                 };
               for i = 2 to 129 do
                 P.encode_request b { rq_id = i; rq_trace = 0; rq_op = Exec "print s;" }
               done;
               write_all fd (Buffer.contents b) 0;
               Unix.sleepf 0.5;
               median ())
         in
         ignore (median ());
         let rounds =
           List.init 3 (fun _ ->
               let alone = median () in
               (alone, beside_stalled ()))
         in
         let middle xs = List.nth (List.sort compare xs) 1 in
         let alone = middle (List.map fst rounds) and beside = middle (List.map snd rounds) in
         if beside > 1.5 *. alone then
           Alcotest.failf "ping median %.0f us beside a stalled reader, %.0f us alone (rounds: %s)"
             (beside *. 1e6) (alone *. 1e6)
             (String.concat "; "
                (List.map (fun (a, b) -> Printf.sprintf "%.0f/%.0f us" (a *. 1e6) (b *. 1e6)) rounds));
         Client.close c))

(* A write attempt that gets EAGAIN copies at most one chunk whatever the
   backlog: on a 1 MiB backlog it allocates a few words (the exception),
   where copying the whole backlog first took 131,000. *)
let blocked_write_allocates_o1 () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Unix.set_nonblock a;
      let junk = Bytes.create 65536 in
      (try
         while true do
           ignore (Unix.write a junk 0 (Bytes.length junk))
         done
       with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
      let out = Buffer.create (1 lsl 20) in
      Buffer.add_string out (String.make (1 lsl 20) 'r');
      let scratch = Bytes.create 65536 in
      let attempt () =
        match Server.write_out a out 0 scratch with
        | n -> Alcotest.failf "a full socket took %d bytes" n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      in
      attempt ();
      let words = Tutil.allocated_words attempt in
      if words >= 64. then Alcotest.failf "a blocked write attempt allocated %.0f words" words)

(* A garbage client hello gets [Bad_version] and a hang-up, a standby
   opening with a bad magic is hung up on, and a scrape request over 8 KiB
   is hung up on unanswered. None of it disturbs the server: /health and
   a query answer after each. *)
let malformed_openings () =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port, rport, mport = Server.spawn_full ~repl_port:0 ~metrics_port:0 ~db_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let c = connect port in
      ignore (Client.exec c schema);
      ignore (Client.exec c "pnew acct { owner = \"ok\", bal = 1 };");
      let still_serving what =
        Tutil.check_bool (what ^ ": health") true
          (contains (http_get mport "/health") "\"role\":\"primary\"");
        Tutil.check_int (what ^ ": query") 1 (List.length (Client.query c "forall x in acct"))
      in
      let opening port bytes =
        let fd = raw_connect port in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            (try write_all fd bytes 0 with Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ());
            read_to_eof fd)
      in
      Tutil.check_string "garbage hello refused" (P.hello_reply P.Bad_version)
        (opening port (String.make P.hello_len 'z'));
      still_serving "garbage hello";
      Tutil.check_string "bad standby magic hung up on" ""
        (opening rport (String.make P.repl_hello_len 'z'));
      still_serving "bad standby magic";
      Tutil.check_string "oversized scrape hung up on" ""
        (opening mport (String.make 9000 'a'));
      still_serving "oversized scrape";
      Client.close c)

(* -- a damaged page reaches the client as corrupt --------------------------- *)

(* A closed store whose middle directory leaf has one flipped byte: open
   does not read that page, so the server starts, and the first query that
   scans the cluster meets the bad checksum. The client gets an error of
   class [Corrupt] naming the page, counted as such, and the connection
   stays usable. *)
let served_corruption () =
  let dir = Tutil.temp_dir "ode-served-corrupt" in
  let db = Db.open_ dir in
  ignore (Db.define db "class acct { owner: string; bal: int; };");
  Db.create_cluster db "acct";
  Db.with_txn db (fun txn ->
      for i = 0 to 299 do
        ignore
          (Db.pnew txn "acct"
             [
               ("owner", Ode_model.Value.Str (String.make 80 (Char.chr (97 + (i mod 26)))));
               ("bal", Ode_model.Value.Int i);
             ])
      done);
  Db.close db;
  let file = Filename.concat dir "directory.bpt" in
  let page_size = Ode_storage.Page.size in
  let contents = In_channel.with_open_bin file In_channel.input_all in
  (* A node's first byte is its kind, 0 for a leaf; page 0 is the header. *)
  let leaves =
    List.filter
      (fun n -> n > 0 && contents.[n * page_size] = '\000')
      (List.init (String.length contents / page_size) Fun.id)
  in
  if List.length leaves < 3 then Alcotest.failf "only %d directory leaves" (List.length leaves);
  let page = List.nth leaves (List.length leaves / 2) in
  Tutil.flip_byte file ((page * page_size) + 101);
  let pid, port = Server.spawn ~db_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let c = connect port in
      (match Client.query c "forall x in acct" with
      | rows -> Alcotest.failf "a scan over a damaged leaf answered %d rows" (List.length rows)
      | exception Client.Server_error { cls; msg } ->
          Tutil.check_string "class" "corrupt" (Ode_util.Ode_error.class_name cls);
          Tutil.check_bool "names the page" true
            (contains msg (Printf.sprintf "directory.bpt: page %d: " page)));
      Client.ping c;
      Tutil.check_bool "counted as corrupt" true
        (counter_value (Client.dot c ".stats") "errors.corrupt" = Some 1);
      Client.close c)

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "exec/query/dot round trips" `Quick basic;
        Alcotest.test_case "4 concurrent sessions, interleaved txns" `Quick concurrent_sessions;
        Alcotest.test_case "idle timeout evicts and rolls back" `Quick idle_eviction;
        Alcotest.test_case "max-conns busy rejection" `Quick busy_rejection;
        Alcotest.test_case "graceful shutdown recoverable" `Quick graceful_shutdown;
        Alcotest.test_case "group commit shares fsyncs across clients" `Quick
          group_commit_batching;
        Alcotest.test_case "group commit: acked survives kill -9" `Quick group_kill9_durability;
        Alcotest.test_case "poll loop serves >1024 concurrent connections" `Slow
          thousand_plus_connections;
        Alcotest.test_case "parallel queries, funneled writes" `Quick parallel_queries_e2e;
        Alcotest.test_case "a served query calling methods" `Quick served_method_query;
        Alcotest.test_case "runaway recursion spares other clients" `Quick
          runaway_recursion_served;
        Alcotest.test_case "metrics endpoint, health, slow-query log" `Quick
          observability_endpoint;
        Alcotest.test_case "mvcc write storm under a pinned snapshot" `Quick mvcc_write_storm;
        Alcotest.test_case "a damaged page reaches the client as corrupt" `Quick served_corruption;
        Alcotest.test_case "pipelining past the reply backlog cap" `Quick pipelined_past_out_cap;
        Alcotest.test_case "a stalled reader costs only itself" `Quick stalled_reader_costs_only_itself;
        Alcotest.test_case "a blocked write allocates O(1)" `Quick blocked_write_allocates_o1;
        Alcotest.test_case "malformed openings leave the server serving" `Quick
          malformed_openings;
      ] );
  ]
