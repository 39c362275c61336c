(** Access-path selection for [forall ... suchthat] iteration.

    The paper notes the [suchthat] and [by] clauses "can be used to
    advantage in query optimization" (§3.1); this planner does exactly that:
    it splits the [suchthat] expression into conjuncts, looks for sargable
    conjuncts ([var.field OP constant]) on indexed fields, and turns one
    into a point or range probe of the secondary index, with the remaining
    conjuncts as a residual filter.

    Every plan carries a cardinality/cost {!estimate}, and every choice is
    made the same way: price each candidate and take the cheapest. After
    [analyze] has collected per-extent cardinalities and per-index key
    histograms ({!Ostats}), candidates are sized from those; with absent
    or stale statistics the same cost model runs on textbook default
    selectivities (and, absent any analyze, a default extent size). Plans
    say which in their provenance: [(stats)] or [(defaults)]. Two-extent
    nested [forall] loops go through {!plan_join}, which recognizes
    collection-join links (ref deref, set membership, field equality) and
    prices each fused strategy against the nested loop. *)

open Types

type access =
  | Full_scan
  | Index_eq of { idx_id : int; field : string; value : Ode_model.Value.t }
  | Index_range of {
      idx_id : int;
      field : string;
      lo : (Ode_model.Value.t * bool) option;  (** bound, inclusive *)
      hi : (Ode_model.Value.t * bool) option;
    }

type estimate = {
  est_rows : float;  (** candidates the access path will emit *)
  est_out : float;  (** rows expected to survive the filter *)
  est_cost : float;  (** total access cost, abstract work units *)
  est_stats : bool;  (** true when fresh analyze statistics were available *)
}

type plan = {
  p_cls : string;             (** root class of the iteration *)
  p_deep : bool;              (** include subclass clusters (paper §3.1.1) *)
  p_classes : string list;    (** concrete clusters the scan will accept *)
  p_access : access;
  p_residual : Ode_lang.Ast.expr option;  (** checked per candidate object *)
  p_var : string;             (** the loop variable the residual binds *)
  p_est : estimate;
}

val indexable_value : Ode_model.Value.t -> bool
(** Values with an order-preserving byte encoding ({!Ode_model.Value.index_key}). *)

val plan :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  deep:bool ->
  suchthat:Ode_lang.Ast.expr option ->
  unit ->
  plan
(** Raises a [User] {!Ode_util.Ode_error.Error} for an unknown class. [env]
    supplies outer loop bindings so join conjuncts become probes. [txn] is
    the transaction the query will run in (constant conjuncts evaluate
    against its view); omitted, they evaluate against the committed
    state. Bumps [planner.stats_hits] or [planner.fallbacks]
    per planned predicate. *)

val explain : plan -> string
(** Human-readable plan with its estimate, e.g.
    ["index range person(age) > 30 — est ~12 rows, cost ~56 (stats) — residual: ..."];
    the provenance reads [(defaults)] when no fresh statistics priced it. *)

(** {1 Join planning} *)

type join_strategy =
  | Nested_loop  (** inner extent replanned and rescanned per outer row *)
  | Fused_deref of string
      (** [i == o.f]: reach the inner object through the outer's ref field *)
  | Fused_member of string
      (** [i in o.fs]: iterate the outer's set/list field *)
  | Hash_join of { outer_field : string; inner_field : string }
      (** [i.g == o.f]: one streamed build pass over the inner extent,
          hash probe per outer row *)

type join_plan = {
  j_ovar : string;
  j_ivar : string;
  j_outer : plan;                      (** access plan for the outer extent *)
  j_inner_cls : string;
  j_inner_deep : bool;
  j_inner_only : Ode_lang.Ast.expr option;
      (** conjuncts on the inner variable alone (hash-build filter) *)
  j_strategy : join_strategy;
  j_rows : float;                      (** estimated emitted pairs *)
  j_cost : float;                      (** estimated cost of the chosen strategy *)
  j_nested_cost : float;               (** what the unfused nested loop would cost *)
  j_stats : bool;
}

val plan_join :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  outer:string * string * bool ->
  inner:string * string * bool ->
  ?outer_suchthat:Ode_lang.Ast.expr ->
  ?inner_suchthat:Ode_lang.Ast.expr ->
  unit ->
  join_plan
(** Plan a two-extent join ([outer]/[inner] are [(var, class, deep)]).
    [inner_suchthat] may mention both variables; its outer-free conjuncts
    filter the inner side, the rest link the extents. Every strategy the
    link shapes allow (deref and member fusion, a hash join on scalar
    fields, the nested loop) is priced, and the cheapest wins; all of them
    emit the nested loop's pairs. Raises a [User] {!Ode_util.Ode_error.Error}
    for an unknown class. *)

val explain_join : join_plan -> string
(** Two-line human-readable join plan: strategy + estimates, then the
    outer access path. *)

(** {1 Operator trees}

    Every [forall] compiles to one tree of push-based operators, which
    {!Query} executes and which explain and profile render, so the
    printed plan is the plan that runs. Leaves produce candidate objects
    of one extent; [Filter] and [Sort] transform that stream; [Join]
    turns an outer stream into pairs; [Output] hands each row to the
    loop body. *)

type tree =
  | Scan of plan  (** full scan of [p_classes] ([p_access = Full_scan]) *)
  | Probe of plan  (** equality probe ([Index_eq]) *)
  | Range of plan  (** range scan ([Index_range]) *)
  | Fixpoint of plan
      (** full scan re-fed with the objects the loop body inserts into the
          extent, until quiescence (paper §3.2); needs a transaction *)
  | Index_order of {
      plan : plan;
      idx_id : int;
      field : string;
      cls_id : int;  (** entries of other classes sharing the index are skipped *)
      order : Ode_lang.Ast.order;
    }  (** [by x.field] streamed from the index in key order *)
  | Filter of { plan : plan; pred : Ode_lang.Ast.expr; input : tree }
      (** the whole [suchthat], re-checked per candidate against the
          transaction's view; [plan] binds [p_var] and names the residual *)
  | Sort of {
      var : string;
      key : Ode_lang.Ast.expr;
      order : Ode_lang.Ast.order;
      input : tree;
    }  (** stable sort on [key] (the [by] clause) *)
  | Join of {
      jp : join_plan;
      link : Ode_lang.Ast.expr option;
          (** the inner [suchthat], re-checked per emitted pair (and the
              per-row inner predicate of a nested loop) *)
      outer : tree;
      build : tree option;  (** a hash join's build side *)
    }
  | Output of tree

type compiled = {
  c_tree : tree;  (** always an [Output] *)
  c_env : (string * Ode_model.Value.t) list;  (** bindings the predicates read *)
  c_vars : string list;  (** loop variables each output row binds, outermost first *)
  c_body : Ode_lang.Ast.stmt list;  (** the statements each row runs *)
}

val compile :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  ?fixpoint:bool ->
  Ode_lang.Ast.forall ->
  compiled
(** The one compiler for a [forall]. A two-extent nested loop with no [by]
    clauses and a side-effect-free inner body that reassigns no variable
    the predicates read becomes one [Join] ({!plan_join}); anything else
    is a single-extent pipeline whose nested loops the body runs as
    statements. Raises [Invalid_argument] for an ordered fixpoint. *)


val scan_tree :
  db ->
  ?txn:txn ->
  env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  deep:bool ->
  suchthat:Ode_lang.Ast.expr option ->
  unit ->
  tree
(** An unordered single-extent pipeline: the planned access, then the
    [suchthat] filter. A nested-loop join replans its inner side with
    this per outer row. *)

val op_name : tree -> string
(** The operator's kind: ["scan"], ["probe"], ["filter"], ["join"], ... *)

val label : tree -> string
(** One node's display label, with its estimate as [~N] figures. *)

val explain_tree : tree -> string
(** The plan line of a whole tree: {!explain} or {!explain_join} for the
    trees they describe, with the ordering or fixpoint operator named. *)
