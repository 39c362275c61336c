(** Statement interpreter for the surface language.

    Executes statement lists (shell input, trigger actions, example
    programs) within a given transaction. Transaction control itself lives
    above (see {!Shell} and {!Database.with_txn}); a statement list can
    create, update and delete objects, iterate with [forall], navigate
    versions, and activate or deactivate triggers. *)

open Types

type env

val env : ?print:(string -> unit) -> ?this:Ode_model.Value.t -> unit -> env
(** [print] receives the output of [print] statements (default: stdout);
    [this] is bound inside trigger actions. *)

val define_var : env -> string -> Ode_model.Value.t -> unit

val undefine_var : env -> string -> unit
(** Drop a binding (restoring a shadowed outer one is the caller's job). *)

val lookup_var : env -> string -> Ode_model.Value.t option
val all_vars : env -> (string * Ode_model.Value.t) list

exception Returned of Ode_model.Value.t
(** Raised by a top-level [return e;] — callers that expect a value catch
    it. *)

val exec_stmts : txn -> env -> Ode_lang.Ast.stmt list -> unit
val exec_stmt : txn -> env -> Ode_lang.Ast.stmt -> unit

val eval_expr : txn -> env -> Ode_lang.Ast.expr -> Ode_model.Value.t

val profile_forall : txn -> env -> Ode_lang.Ast.forall -> Query.profile
(** Run a [forall] statement exactly as {!exec_stmt} would — the same
    {!Planner.compile}, so a fusable nested loop runs as the same join —
    with full per-operator attribution (the shell's [.profile]). *)
