(** Top-level driver for the surface language: the O++ "program".

    Executes parsed top-level forms against a database: class definitions,
    cluster/index creation, transaction control ([begin;] / [commit;] /
    [abort;]), [explain], logical-clock advancement, and plain statements.
    Statements outside an explicit transaction are autocommitted (each
    statement is its own transaction, as the paper's programs-as-transactions
    model degenerates to for single statements). *)

type t

val create : ?print:(string -> unit) -> Database.t -> t
(** [print] receives all shell output (default stdout). *)

val database : t -> Database.t

val exec_top : t -> Ode_lang.Ast.top -> unit

val exec : t -> string -> unit
(** Parse and execute a whole program. Exceptions propagate after aborting
    any open transaction on parse errors only; runtime errors leave an
    explicit transaction open for the user to [abort;]. *)

val classify : exn -> Ode_util.Ode_error.t
(** The one place an exception gets its class and message. One the engine
    does not know is an engine bug: [Internal], prefixed ["internal error: "]. *)

val exec_catching : t -> string -> (unit, Ode_util.Ode_error.t) result
(** Like {!exec} but returning any error {!classify}d (for the REPL and the
    server). A {!Types.Txn_conflict} also clears the (already
    server-side-aborted) open transaction; a later bare [commit;]
    re-reports the conflict until [begin] or [abort] acknowledges it, so
    retried commit requests keep seeing the retryable error. *)

val vars : t -> (string * Ode_model.Value.t) list
(** Current shell variable bindings. *)

val in_transaction : t -> bool
(** Is an explicit [begin;] transaction open? *)

val rollback : t -> unit
(** Abort the open explicit transaction, if any. Used by the server when a
    session disconnects or the server shuts down mid-transaction. *)

val query_rows : t -> string -> (string list, Ode_util.Ode_error.t) result
(** Run a bodiless [forall] query and render each qualifying object as one
    row (oid plus fields) — the wire protocol's [Query] opcode. Runs inside
    the open explicit transaction if any; otherwise in a detached read-only
    transaction ({!Database.with_read_txn}). Errors are {!classify}d, not
    raised. *)

val row_text : Ode_model.Oid.t -> (string * Ode_model.Value.t) list -> string
(** One {!query_rows} row: [#cls:num {f = v, ...}], each value as
    {!Ode_model.Value.pp} prints it, written into one buffer. *)

val dot_command : t -> string -> string option
(** Handle a sqlite3-style dot command line ([.stats [reset]], [.recovery],
    [.metrics [reset]], [.hist NAME], [.txns], [.trace on|off|dump FILE],
    [.explain QUERY], [.profile QUERY], [.durability [full|group|async]],
    [.sync], [.read FILE], [.quit], [.help]). [.txns] reports the open
    write transactions (xid, read timestamp), live snapshot count, the
    MVCC GC horizon and the dead-version backlog. [.durability] reports (and
    with an argument, switches) the database's commit durability level —
    switching to [full] first syncs any pending group commits; [.sync]
    force-acknowledges pending commits with one shared WAL fsync.
    Returns [None] when the line is not a dot command, [Some output]
    otherwise (errors are rendered into the output, never raised; an empty
    output means "nothing to print"). [.read] executes a script file through
    {!exec_catching}; [.quit] sets {!wants_quit} for the driving REPL. *)

val wants_quit : t -> bool
(** Set once [.quit] has been executed; the REPL checks it after each dot
    command. *)
