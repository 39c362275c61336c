(** Blocking OCaml client for the ODE wire protocol.

    One [t] is one remote session: the server keeps your shell variables
    and explicit transaction between calls. All calls block until the
    response arrives or the timeout elapses ({!Timeout}).

    {2 Retries and failover}

    Transient failures — the server hung up (idle-timeout eviction,
    restart, crash) or refused the connection — are retried up to [retries]
    times with exponential backoff and jitter, rotating through the write
    pool ([host:port] followed by every [replicas] entry) on each attempt.
    A write answered with an error of class [Redirect] burns a retry the
    same way, which is the failover path: when the primary dies and a
    standby is promoted, writes bounce off the remaining standbys until
    they land on the promoted one, then stick. A retried call runs in a
    fresh session — empty variable bindings, no open transaction — exactly
    as if the eviction's rollback had been observed; and since a lost
    connection cannot prove whether the server executed the request,
    retried writes may be applied twice. Callers needing exactly-once must
    make their programs idempotent.

    A first-committer-wins conflict (an error reply of class [Conflict])
    also burns a retry, but without rotating endpoints or dropping
    the connection: the server already aborted the losing transaction, so
    the same request is simply re-executed on the same session after the
    jittered backoff — replaying the transaction against a fresh snapshot.
    Budget exhausted, the call raises {!Server_error} for the caller to
    replay at its own pace. For this to be sound, send an explicit transaction as
    {e one} request ("begin; ...; commit;"): a conflict spread across
    several requests leaves the replay without the earlier statements.

    {2 Read routing}

    When [replicas] is non-empty, {!query} is served from a replica
    connection, with read-your-writes stickiness: every response carries
    the server's commit LSN, the client tracks the highest LSN any write-
    pool response acknowledged, and a replica answer behind that watermark
    (or failing, or unreachable) silently falls back to the primary.

    {2 Domains}

    The client touches no process-global instrumentation ([Stats],
    [Histogram], [Trace], [Slowlog]), so a load generator may run clients
    on several domains, one [t] per domain. *)

type t

exception Server_error of Ode_util.Ode_error.t
(** The server answered a request with an [Error] reply. The connection
    stays usable. A [Conflict] here lost every replay in the retry budget:
    the transaction did not commit. Back off and replay, or give up. *)

exception Rejected of string
(** The handshake was refused: server busy, protocol version mismatch, or
    the peer is not an ODE server. *)

exception Disconnected of string
(** The connection died and the retry budget is exhausted. *)

exception Timeout
(** No response within the configured timeout. The connection state is
    indeterminate afterwards ({e the request may have executed}), so
    timeouts are never retried implicitly; {!close} and reconnect. *)

exception Pipeline_broken of { acked : (string, Ode_util.Ode_error.t) result list; pending : int }
(** The connection died mid-{!exec_many}. [acked] holds the per-request
    outcomes that were received, in request order — those requests
    definitely executed (and, under Full/Group durability, their commits
    are durable). [pending] counts the requests after them whose fate is
    unknown: the prefix of them that reached the server may have executed
    without an observable ack. *)

val connect :
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?replicas:(string * int) list ->
  host:string ->
  port:int ->
  unit ->
  t
(** [timeout] (seconds, default 30) bounds each send/receive; [retries]
    (default 4) is the transient-failure budget per call; [backoff]
    (seconds, default 0.05) the base retry delay, doubled per attempt
    (capped at 2s) and jittered. [replicas] are standby endpoints: read
    pool for {!query} and failover candidates for everything else. The
    initial connection to [host:port] is not retried. *)

val ping : ?timeout:float -> t -> unit

val exec : ?timeout:float -> t -> string -> string
(** Run a program remotely; returns its printed output. [?timeout]
    overrides the connection default for this call. *)

val exec_many : t -> string list -> (string, Ode_util.Ode_error.t) result list
(** Pipelined [exec]: send the whole batch in one write, then read the
    responses in order — one network round trip for N programs, and under
    the server's group durability one shared WAL fsync for the batch's
    autocommits. Per-request outcomes ([Ok output] / [Error classified]), so
    one failing statement doesn't orphan the responses behind it. Keep
    batches modest (well under the server's per-connection flow-control
    cap, ~1 MiB of responses). There is no mid-batch reconnect or retry: a
    dead connection raises {!Pipeline_broken} with the acknowledged
    prefix. The one exception is a first-committer-wins conflict: once the
    batch has drained, each conflicted entry (already aborted server-side)
    is replayed individually with {!exec}'s backoff-and-retry, and a loss
    past the budget comes back as its [Conflict] error. *)

val query : ?timeout:float -> t -> string -> string list
(** Run a bodiless [forall]; one rendered object per row. Served from a
    replica when the client was given [replicas] (see read routing above). *)

val dot : ?timeout:float -> t -> string -> string
(** Run a [.command] remotely. *)

val call : ?timeout:float -> t -> Protocol.op -> Protocol.reply
(** Low-level escape hatch: send any op through the write pool (with
    retries), get the raw reply (still checked for id match and framing). *)

val last_seen_lsn : t -> int
(** The read-your-writes watermark: the highest commit LSN any write-pool
    response carried. -1 before the first response. *)

val last_trace_id : t -> int
(** The client-assigned trace id of the most recent request (0 before the
    first). Grep server `.trace dump`s and the slow-query log for
    [Ode_util.Trace.id_to_string] of this value to find the request's
    spans — including the standby's apply span for a replicated write. *)

val close : t -> unit
(** Send a polite [Close] (best effort) and release the sockets.
    Idempotent. *)
