(** One connected client's server-side state: a {!Ode.Shell} of its own
    (variable bindings, autocommit/explicit-transaction rules) whose
    [print] output is captured per request, plus the serving metrics —
    every handled request lands in the [server.request] histogram, emits a
    [server.request] trace span when tracing is on, and bumps the
    [server.requests] counter.

    Transactions run under MVCC snapshot isolation: autocommitted
    statements from any number of sessions interleave freely (the event
    loop runs every request on one domain, and each statement is
    its own transaction), and any number of sessions hold explicit
    [begin;] transactions concurrently, each against its own snapshot.
    When two of them write the same key, the first committer wins and the
    loser's commit returns an [Error] reply of class [Conflict] (its
    transaction is auto-aborted server-side); clients replay the
    transaction. An error reply bumps its class's counter
    ([errors.conflict] ... [errors.internal]) and names the class on its
    slow-query line. Disconnect, idle eviction and server shutdown all roll
    an open transaction back ({!close}), so a vanished client cannot wedge
    the server. *)

type t

val create : ?id:int -> Ode.Database.t -> t
(** [id] labels the session in trace spans (the server uses the accept
    counter). *)

val id : t -> int

val in_transaction : t -> bool
(** Is this session inside an explicit [begin;] transaction? The server
    runs such sessions' queries through {!handle} (they must see the
    transaction's own writes). *)

val handle : ?count:bool -> ?queue_wait_ns:int -> t -> Protocol.request -> Protocol.response
(** Execute one request. Never raises: every error
    comes back as an [Error] reply, {!Ode.Shell.classify}d; only the
    response id echoes the request id.
    Queries run in an ordinary write transaction, so methods that write
    are legal. Installs the database's trigger action printer
    for the duration. [count:false] skips the [server.requests] bump (used
    when re-executing a request already counted by {!handle_read}).
    [queue_wait_ns] (default 0) is how long the request sat queued before
    execution — reported in the slow-query log, see {!Ode_util.Slowlog}.

    The request's trace id ([rq_trace]) is the ambient
    {!Ode_util.Trace.current_trace_id} for the duration: the
    [server.request] span, nested engine spans, WAL commit records and any
    slow-query entry all carry it. *)

val handle_read : ?queue_wait_ns:int -> t -> Protocol.request -> Protocol.response
(** Execute one read-only request ([Ping] or [Query]): queries run in a
    detached read-only transaction against its own MVCC snapshot. Raises
    {!Ode.Types.Read_only_txn} when the query attempts a write (before any
    shared state is touched) — the server replays such requests with
    {!handle}. *)

val close : t -> unit
(** Roll back the session's open explicit transaction, if any. Idempotent;
    called on disconnect, eviction and server shutdown. *)
