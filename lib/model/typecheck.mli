(** Static checking of schema-embedded expressions.

    Constraints, trigger conditions and method bodies are checked when a
    class is defined; [suchthat]/[by] clauses are checked when a query is
    planned. The checker is deliberately pragmatic: shell variables are
    dynamically typed ({!Dyn}), and [Dyn] unifies with everything. *)

type ty =
  | Known of Otype.t
  | Dyn                      (** unknown statically; checked at run time *)

val pp_ty : Format.formatter -> ty -> unit

type env = {
  catalog : Catalog.t;
  vars : (string * ty) list;       (** loop/shell variables *)
  this_class : Schema.cls option;  (** class of [this], when inside a class *)
}

val infer : env -> Ode_lang.Ast.expr -> ty
(** Raises a [User] {!Ode_util.Ode_error.Error} on a definite type error
    (unknown field, ordering a set, arity mismatch on a known method, ...). *)

val check_bool : env -> Ode_lang.Ast.expr -> what:string -> unit
(** Require boolean (or [Dyn]); used for constraints, conditions and
    [suchthat]. *)

val check_class : Catalog.t -> Schema.cls -> unit
(** Validate every constraint, trigger and method body of a freshly defined
    class. Called by the database layer right after {!Catalog.define}. *)
