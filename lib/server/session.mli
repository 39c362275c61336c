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
(** Is this session inside an explicit [begin;] transaction? *)

val handle : t -> Protocol.request -> Protocol.response
(** Execute one request. Never raises: every error
    comes back as an [Error] reply, {!Ode.Shell.classify}d; only the
    response id echoes the request id. A [Query] runs inside the session's
    explicit transaction if one is open, so it sees that transaction's own
    writes; otherwise in a detached read-only transaction against its own
    MVCC snapshot ({!Ode.Shell.query_rows}). Installs the database's
    trigger action printer for the duration. A request whose execution
    reaches the slow-query threshold is logged with its execute time, see
    {!Ode_util.Slowlog}.

    The request's trace id ([rq_trace]) is the ambient
    {!Ode_util.Trace.current_trace_id} for the duration: the
    [server.request] span, nested engine spans, WAL commit records and any
    slow-query entry all carry it. *)

val handle_read : t -> Protocol.request -> Protocol.response
(** The same function as {!handle}, kept under this name for callers
    written when reads took a separate path. *)

val close : t -> unit
(** Roll back the session's open explicit transaction, if any. Idempotent;
    called on disconnect, eviction and server shutdown. *)
