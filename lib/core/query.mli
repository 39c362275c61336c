(** Cluster iteration — the paper's [forall x in C suchthat e by e'] (§3).

    Iteration visits the cluster (type extent) of a class; with [~deep:true]
    it also visits every subcluster, mirroring the class hierarchy
    (§3.1.1). Every [forall] — single-extent, a two-extent join, ordered,
    or fixpoint — compiles to one {!Planner.tree} of operators (Scan,
    Probe, Range, Filter, Sort, Index_order, Join, Fixpoint, Output), and
    one push-based executor here runs it. The [suchthat] predicate is
    planned into the access operator (index probe when possible, full scan
    otherwise) but the Filter always re-evaluates it per candidate against
    the transaction's own view, so index staleness with respect to
    uncommitted updates never produces wrong answers. Predicates, sort
    keys and join keys are compiled once per plan
    ({!Ode_model.Eval.compile}); each candidate's record is fetched once
    (from the scan's directory leaf, or by one lookup for an index or
    reference candidate) and the compiled closures, and the loop body,
    read the fields they need from it.

    With [~fixpoint:true], objects inserted into the cluster by the loop
    body are themselves visited — the paper's mechanism for expressing
    recursive (least-fixpoint) queries (§3.2). Fixpoint iteration requires
    an active transaction and is incompatible with [by]. *)

open Types

val run :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  ?by:Ode_lang.Ast.expr * Ode_lang.Ast.order ->
  ?fixpoint:bool ->
  (Ode_model.Oid.t -> unit) ->
  unit
(** The loop reads through [txn]'s view; with no [txn] it reads the
    committed state, whatever transactions are open. [env] provides outer
    loop variables (for join inner loops). *)

val fold :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  ?by:Ode_lang.Ast.expr * Ode_lang.Ast.order ->
  init:'a ->
  ('a -> Ode_model.Oid.t -> 'a) ->
  'a

val to_list :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  ?by:Ode_lang.Ast.expr * Ode_lang.Ast.order ->
  unit ->
  Ode_model.Oid.t list

val count :
  db ->
  ?txn:txn ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  var:string ->
  cls:string ->
  unit ->
  int

val exists :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  var:string ->
  cls:string ->
  unit ->
  bool
(** Is there at least one qualifying object? Stops scanning — and reading
    pages — at the first match. *)

val run_join :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  outer:string * string * bool ->
  inner:string * string * bool ->
  ?outer_suchthat:Ode_lang.Ast.expr ->
  ?inner_suchthat:Ode_lang.Ast.expr ->
  (Ode_model.Oid.t -> Ode_model.Oid.t -> unit) ->
  unit
(** Planned two-extent join ([(var, class, deep)] per side): compiles the
    {!Planner.plan_join} strategy — nested loop, deref/membership fusion,
    or a hash join (one streamed build pass over the inner extent, probe
    per outer row) — into a Join tree and runs it. Pairs are emitted
    outer-major; every pair re-checks the full [inner_suchthat] with both
    variables bound, so a fused strategy produces exactly the nested
    loop's matches. Raises [Invalid_argument] when both sides name the
    same loop variable. *)

val explain_join :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  outer:string * string * bool ->
  inner:string * string * bool ->
  ?outer_suchthat:Ode_lang.Ast.expr ->
  ?inner_suchthat:Ode_lang.Ast.expr ->
  unit ->
  string
(** The plan line of the join tree {!run_join} would execute right now. *)

val join2 :
  db ->
  ?txn:txn ->
  outer:string * string ->
  inner:string * string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  (Ode_model.Oid.t -> Ode_model.Oid.t -> unit) ->
  unit
(** [join2 db ~outer:(x, C1) ~inner:(y, C2) ~suchthat f] — the paper's
    multiple-loop-variable [forall], routed through {!run_join}: a
    nested iteration where the inner loop is planned with the outer
    binding known (an equi-join conjunct [y.f == x.g] becomes an index
    probe per outer row when [C2(f)] is indexed), fused or hash-joined
    when the planner prices that cheaper. *)

val explain :
  db ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  unit ->
  string
(** The plan line of the tree {!run} would execute right now. *)

(** {1 Executing compiled trees}

    The statement interpreter, the shell and the OCaml entry points above
    all compile through {!Planner.compile} and run here, so the plan that
    [explain] prints, the one [.profile] measures and the one the slow
    log records are the one that ran. *)

val execute :
  db -> ?txn:txn -> Planner.compiled -> (Store.row list -> unit) -> unit
(** Run a compiled tree, handing each output row (one fetched record per
    loop variable, outermost first) to the body, which can read the
    fields of each from the record the executor already holds. One [query.execute] histogram
    sample per call, and with the slow-query log armed one light profile
    stashed for {!take_last_profile}. *)

(** {1 Per-query profiling (EXPLAIN ANALYZE)}

    Profiling is a wrapper on each operator edge, chosen when the tree's
    closures are built: none when off, a row count per node under the
    armed slow log or tracer, and time plus counter attribution for an
    explicit profile. Attribution is mark-based and exact: every
    nanosecond and every counter bump between query start and finish
    lands in exactly one node, so the per-node values sum to the query
    totals. *)

type node_stats = {
  ns_op : Planner.tree;  (** the operator; {!Planner.op_name} gives its kind *)
  ns_label : string;
  mutable ns_rows : int;  (** rows this node produced (live candidates for an
                              access operator, survivors for a filter, pairs
                              for a join, rows handed to the body for output) *)
  mutable ns_ns : int;  (** elapsed nanoseconds attributed to this node *)
  ns_stats : Ode_util.Stats.snapshot;  (** counter delta attributed to this node *)
}

type profile = {
  pf_plan : string;  (** {!Planner.explain_tree} of the executed tree *)
  pf_nodes : node_stats list;  (** producers before their consumers *)
  pf_rows : int;
  pf_total_ns : int;
  pf_stats : Ode_util.Stats.snapshot;
}

val profile :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  ?by:Ode_lang.Ast.expr * Ode_lang.Ast.order ->
  ?body:(Ode_model.Oid.t -> unit) ->
  unit ->
  profile
(** Run the query (with [body] as the loop body, defaulting to a no-op) and
    return the per-node attribution. *)

val execute_profiled :
  db -> ?txn:txn -> Planner.compiled -> (Store.row list -> unit) -> profile
(** {!execute} with full per-node attribution: the shell's [.profile]. *)

val profile_to_string : profile -> string
(** The plan line plus a per-node table (rows, time, pages, probes, scanned,
    fetched, cursor pages) with a total row — the shell's [.profile]. *)

val profile_to_json : profile -> string
(** The same attribution as one JSON object
    ([{"plan",...,"nodes":[{op,label,rows,ns,...}]}]) for the slow-query log. *)

val take_last_profile : unit -> profile option
(** Take (and clear) the profile of the last query run. Populated only
    while {!Ode_util.Slowlog} is armed — [run] then executes queries
    profiled so the session layer can attach the per-plan-node breakdown
    to a slow-query entry after the fact. *)

(** {1 Aggregates}

    The paper's §3.1 aggregate loops ("average income of all persons"),
    packaged: [expr] is evaluated per qualifying object with the loop
    variable bound; [Null] results are skipped (like SQL aggregates skip
    NULL). *)

val aggregate :
  db ->
  ?txn:txn ->
  ?env:(string * Ode_model.Value.t) list ->
  var:string ->
  cls:string ->
  ?deep:bool ->
  ?suchthat:Ode_lang.Ast.expr ->
  expr:Ode_lang.Ast.expr ->
  init:'a ->
  combine:('a -> Ode_model.Value.t -> 'a) ->
  unit ->
  'a

val sum :
  db -> ?txn:txn -> ?env:(string * Ode_model.Value.t) list -> var:string -> cls:string ->
  ?deep:bool -> ?suchthat:Ode_lang.Ast.expr -> expr:Ode_lang.Ast.expr -> unit -> float
(** Raises {!Ode_model.Eval.Error} when [expr] yields a non-numeric,
    non-null value. *)

val average :
  db -> ?txn:txn -> ?env:(string * Ode_model.Value.t) list -> var:string -> cls:string ->
  ?deep:bool -> ?suchthat:Ode_lang.Ast.expr -> expr:Ode_lang.Ast.expr -> unit -> float option
(** [None] when no object qualifies. *)

val minimum :
  db -> ?txn:txn -> ?env:(string * Ode_model.Value.t) list -> var:string -> cls:string ->
  ?deep:bool -> ?suchthat:Ode_lang.Ast.expr -> expr:Ode_lang.Ast.expr -> unit ->
  Ode_model.Value.t option

val maximum :
  db -> ?txn:txn -> ?env:(string * Ode_model.Value.t) list -> var:string -> cls:string ->
  ?deep:bool -> ?suchthat:Ode_lang.Ast.expr -> expr:Ode_lang.Ast.expr -> unit ->
  Ode_model.Value.t option

val group_count :
  db -> ?txn:txn -> ?env:(string * Ode_model.Value.t) list -> var:string -> cls:string ->
  ?deep:bool -> ?suchthat:Ode_lang.Ast.expr -> expr:Ode_lang.Ast.expr -> unit ->
  (Ode_model.Value.t * int) list
(** Objects per distinct value of [expr], sorted by value. *)
