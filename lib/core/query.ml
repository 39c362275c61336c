module Ast = Ode_lang.Ast
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
module Bptree = Ode_index.Bptree
open Types

let c_objects_scanned = Ode_util.Stats.counter "objects_scanned"
let c_planner_nested_joins = Ode_util.Stats.counter "planner.nested_joins"
let c_planner_fused_joins = Ode_util.Stats.counter "planner.fused_joins"
let c_planner_hash_joins = Ode_util.Stats.counter "planner.hash_joins"

let class_ids db classes =
  List.filter_map
    (fun name -> Option.map (fun (c : Schema.cls) -> c.Schema.id) (Catalog.find db.catalog name))
    classes

(* Does the (live) object [oid] belong to one of the accepted clusters? *)
let accept_class ids (oid : Oid.t) = List.mem oid.cls ids

(* Ordered merge of MVCC chain keys into a streaming key scan. An object
   overwritten or deleted after the scanning snapshot was taken may have no
   directory or index entry left to stream from — its pre-image lives only
   in a version chain — so the chained keys under the scan's range are
   interleaved into the stream in key order. Every merged candidate is
   re-verified against the snapshot when it is fetched (invisible ones,
   e.g. created-after-snapshot chains, drop out there); a chained key
   still present in the tree collapses onto the stream's copy. [iter]
   streams keys in key order, each with its tree value; [emit key v] takes
   a streamed key with [Some v] and a chained-only one with [None].
   [chained] must be sorted (as {!Mvcc.keys_matching} returns). *)
let merge_chained chained emit iter =
  match chained with
  | [] ->
      iter (fun key v ->
          emit key (Some v);
          true)
  | _ ->
      let rest = ref chained in
      let drain_below key =
        let rec go () =
          match !rest with
          | ck :: tl when ck < key ->
              rest := tl;
              emit ck None;
              go ()
          | ck :: tl when ck = key -> rest := tl
          | _ -> ()
        in
        go ()
      in
      iter (fun key v ->
          drain_below key;
          emit key (Some v);
          true);
      List.iter (fun ck -> emit ck None) !rest

(* Committed extent of one class, in creation order: each header key with
   its directory value, an inline record as the cursor's copy of its leaf
   holds it or the rid of an out-of-line one. Chained header keys are
   merged in so objects deleted after the snapshot still surface
   ([Mvcc.keys_matching] is an emptiness check when no chains exist — the
   common case — and otherwise one fold over the chains). *)
let committed_candidates db ?txn cls_id f =
  let prefix = Keys.header_prefix_class cls_id in
  let chained =
    match txn with
    | None -> []
    | Some _ -> Mvcc.keys_matching db.mvcc (fun k -> String.starts_with ~prefix k)
  in
  merge_chained chained f (fun g -> Kv.iter_prefix_entries db prefix g)

(* Transaction-local additions: objects created (or touched — their state may
   newly match an indexed predicate) in the active transaction. *)
let txn_candidates txn ids f =
  match txn with
  | None -> ()
  | Some t ->
      List.iter (fun oid -> if accept_class ids oid then f oid) (List.rev t.created);
      Hashtbl.iter (fun oid () -> if accept_class ids oid then f oid) t.touched

(* Index entries are chain-recorded under their 'I'-prefixed logical key;
   the index tree stores them without the tag, so chained keys are stripped
   (order-preserving: they share the leading 'I') before merging. *)
let chained_index_keys db txn pred =
  match txn with
  | None -> []
  | Some _ ->
      List.map Keys.index_tree_key
        (Mvcc.keys_matching db.mvcc (fun k ->
             Keys.is_index_key k && pred (Keys.index_tree_key k)))

let index_candidates db ?txn (access : Planner.access) f =
  let entry key _ = f (Keys.oid_of_index_key key) in
  match access with
  | Planner.Full_scan -> invalid_arg "index_candidates: full scan"
  | Planner.Index_eq { idx_id; value; _ } ->
      let prefix = Keys.index_tree_key (Keys.index_value_prefix ~idx_id ~valkey:(Value.index_key value)) in
      let chained = chained_index_keys db txn (String.starts_with ~prefix) in
      merge_chained chained entry (fun g -> Bptree.iter_prefix db.idx prefix (fun key _ -> g key ()))
  | Planner.Index_range { idx_id; lo; hi; _ } ->
      let tree_prefix = Keys.index_tree_key (Keys.index_prefix ~idx_id) in
      (* An inclusive upper or exclusive lower bound ends past every entry
         with the bound's exact value. *)
      let bound ~upper (v, incl) =
        let vk = tree_prefix ^ Value.index_key v in
        if incl = upper then Ode_util.Key.succ_prefix vk else Some vk
      in
      let lo_key =
        Option.value ~default:tree_prefix (Option.bind lo (bound ~upper:false))
      in
      let hi_key =
        match hi with None -> Ode_util.Key.succ_prefix tree_prefix | Some b -> bound ~upper:true b
      in
      let chained =
        chained_index_keys db txn (fun tk ->
            tk >= lo_key && match hi_key with None -> true | Some h -> tk < h)
      in
      merge_chained chained entry (fun g ->
          Bptree.iter_range db.idx ~lo:lo_key ?hi:hi_key (fun key _ -> g key ()))

(* -- the executor -------------------------------------------------------------

   Runs a {!Planner.compiled} tree push-style: each operator is built into
   a closure that pushes its rows into its parent's, and the root hands
   them to the loop body. Profiling (EXPLAIN ANALYZE, paper §3.1 "query
   optimization") wraps each edge, chosen when the closures are built:
   nothing when off; a row count when light (armed slow log, tracer); a
   row count plus time and counter attribution for an explicit profile.
   That attribution is mark-based: charging a node adds (now - mark,
   stats - mark) to it and advances the mark. A row entering a parent
   charges the child, the parent's return charges the parent, and a
   finished producer charges its own tail, so every instant and counter
   bump lands in exactly one node and the per-node sums equal the query
   totals by construction. A clock read and [Stats.snapshot] per edge are
   unaffordable on an always-armed path (counter-cell reads cost hundreds
   of ns each in a real scan, ~35% of a query), so light mode takes time
   and counters only at the query boundaries. *)

type node_stats = {
  ns_op : Planner.tree;
  ns_label : string;
  mutable ns_rows : int;
  mutable ns_ns : int;
  ns_stats : Ode_util.Stats.snapshot;
}

type profile = {
  pf_plan : string;
  pf_nodes : node_stats list;
  pf_rows : int;
  pf_total_ns : int;
  pf_stats : Ode_util.Stats.snapshot;
}

type prof = {
  full : bool;
  mutable mark_ns : int;
  mutable mark_stats : Ode_util.Stats.snapshot;
  mutable nodes : node_stats list;  (* post-order, last first *)
}

type ctx = {
  db : db;
  txn : txn option;
  env : (string * Value.t) list;
  bound : (string * Store.row) list;  (* the rows of enclosing loop variables *)
  hooks : Eval.hooks;
  prof : prof option;
}

let attr p node =
  if p.full then begin
    let t = Ode_util.Trace.now_ns () in
    node.ns_ns <- node.ns_ns + (t - p.mark_ns);
    let s = Ode_util.Stats.snapshot () in
    Ode_util.Stats.accum ~into:node.ns_stats s p.mark_stats;
    p.mark_stats <- s;
    p.mark_ns <- t
  end

(* Unprofiled runs never write a node, so they all share one snapshot. *)
let off_stats = Ode_util.Stats.zero ()

let node ctx t =
  match ctx.prof with
  | None -> { ns_op = t; ns_label = ""; ns_rows = 0; ns_ns = 0; ns_stats = off_stats }
  | Some _ ->
      { ns_op = t; ns_label = Planner.label t; ns_rows = 0; ns_ns = 0;
        ns_stats = Ode_util.Stats.zero () }

(* Called once a node's inputs are built, so the list comes out in
   execution order: producers before their consumers. *)
let register ctx n = match ctx.prof with Some p -> p.nodes <- n :: p.nodes | None -> ()

(* The edge from [child]'s output into [parent]'s code. *)
let edge ctx ~child ~parent sink =
  match ctx.prof with
  | None -> sink
  | Some p when not p.full ->
      fun r ->
        child.ns_rows <- child.ns_rows + 1;
        sink r
  | Some p ->
      fun r ->
        child.ns_rows <- child.ns_rows + 1;
        attr p child;
        Fun.protect ~finally:(fun () -> attr p parent) (fun () -> sink r)

(* A finished producer's tail (cursor wind-down, loop epilogue) is its own. *)
let tail ctx node run =
  match ctx.prof with
  | Some ({ full = true; _ } as p) ->
      fun () ->
        run ();
        attr p node
  | _ -> run

(* -- compiled expressions ------------------------------------------------------

   Predicates, sort keys and join keys are compiled once, when the
   operator is built ({!Ode_model.Eval.compile}), and read the fields they
   need from each candidate's fetched record ({!Store.field_reader}). A
   closure runs over a frame of rows: the loop variables it was compiled
   for, innermost first, then the enclosing loops' rows. Each closure has
   its own frame. *)

let no_row : Store.row = { oid = { cls = -1; num = -1 }; data = ""; slots_at = 0; wcount = 0 }

(* [vars] are loop variables, innermost first. *)
let compile ctx vars e =
  let bind slot : Store.row Eval.binding =
    { slot; value = (fun r -> Value.Ref r.Store.oid); field = Store.field_reader ctx.db ctx.txn }
  in
  let rows = List.mapi (fun i v -> (v, bind i)) (vars @ List.map fst ctx.bound) in
  let frame = Array.of_list (List.map (fun _ -> no_row) vars @ List.map snd ctx.bound) in
  (frame, Eval.compile ctx.hooks ~rows ~vars:ctx.env ~this:None e)

(* An error, or a value that is not a boolean, makes a predicate false. *)
let holds f frame =
  match f frame with
  | v -> ( try Eval.truthy v with Eval.Error _ -> false)
  | exception Eval.Error _ -> false

let predicate ctx var e =
  let frame, f = compile ctx [ var ] e in
  fun r ->
    frame.(0) <- r;
    holds f frame

(* An error makes a key [Null]. *)
let key ctx var e =
  let frame, f = compile ctx [ var ] e in
  fun r ->
    frame.(0) <- r;
    match f frame with v -> v | exception Eval.Error _ -> Value.Null

let field_key ctx var f = key ctx var (Ast.Field (Ast.Var var, f))

(* -- access operators ------------------------------------------------------------ *)

(* A candidate of [ids]' clusters, fetched when it is live in the
   transaction's view. *)
let candidate ctx ids oid =
  Ode_util.Stats.incr c_objects_scanned;
  if accept_class ids oid then Store.fetch ctx.db ctx.txn oid else None

(* The committed extent, then the objects the transaction created. A
   fixpoint re-reads the creations until quiescence, so the objects its
   loop body inserts into the extent are visited too (paper §3.2). A
   committed candidate's record comes from the scan's own directory
   value, unless the transaction's overlay or a version chain answers for
   its key first. *)
let scan ctx ~fixpoint (p : Planner.plan) out =
  let ids = class_ids ctx.db p.p_classes in
  let emit oid = Option.iter out (candidate ctx ids oid) in
  let committed key entry =
    Ode_util.Stats.incr c_objects_scanned;
    let data =
      match Store.view ctx.db ctx.txn key with
      | Store.Here v -> v
      | Store.Committed -> (
          match entry with Some e -> Kv.entry_payload ctx.db key e | None -> Kv.get ctx.db key)
    in
    Option.iter (fun d -> out (Store.row ctx.txn (Keys.oid_of_header_key key) d)) data
  in
  fun () ->
    if fixpoint && Option.is_none ctx.txn then
      invalid_arg "query: fixpoint iteration requires a transaction";
    List.iter (fun cid -> committed_candidates ctx.db ?txn:ctx.txn cid committed) ids;
    match ctx.txn with
    | None -> ()
    | Some t ->
        let rec pass seen =
          let created = t.created in
          let fresh = List.length created - seen in
          if fresh > 0 then begin
            List.iter
              (fun oid -> if accept_class ids oid then emit oid)
              (List.rev (List.filteri (fun i _ -> i < fresh) created));
            if fixpoint then pass (seen + fresh)
          end
        in
        pass 0

(* Index entries reflect committed state only; candidates are re-verified
   against the transaction's view (the Filter above re-checks the whole
   predicate), and txn-local objects are appended as extra candidates. *)
let probe ctx (p : Planner.plan) out =
  let ids = class_ids ctx.db p.p_classes in
  fun () ->
    let seen = Hashtbl.create 64 in
    let once oid =
      if not (Hashtbl.mem seen oid) then begin
        Hashtbl.replace seen oid ();
        Option.iter out (candidate ctx ids oid)
      end
    in
    index_candidates ctx.db ?txn:ctx.txn p.p_access once;
    txn_candidates ctx.txn ids once

(* Entries for other classes of a shared ancestor index are skipped by the
   oid's class id. *)
let index_order ctx ~idx_id ~cls_id order out =
  let tree_prefix = Keys.index_tree_key (Keys.index_prefix ~idx_id) in
  let step key _ =
    let oid = Keys.oid_of_index_key key in
    if oid.Oid.cls = cls_id then Option.iter out (candidate ctx [ cls_id ] oid);
    true
  in
  fun () ->
    match order with
    | Ast.Asc -> Bptree.iter_prefix ctx.db.idx tree_prefix step
    | Ast.Desc -> Bptree.iter_prefix_rev ctx.db.idx tree_prefix step

(* Operator [t], whose rows go to [parent]'s [sink] (the root's parent is
   itself: the loop body's time is the output's): [make self out] builds
   its run closure, pushing rows through [out]. *)
let operator ctx t ?parent sink make =
  let self = node ctx t in
  let parent = Option.value parent ~default:self in
  let run = make self (edge ctx ~child:self ~parent sink) in
  register ctx self;
  tail ctx self run

(* A single-variable operator: pushes candidate rows into [sink]. *)
let rec build ctx (t : Planner.tree) ~parent sink =
  operator ctx t ~parent sink @@ fun self out ->
    match t with
    | Scan p -> scan ctx ~fixpoint:false p out
    | Fixpoint p -> scan ctx ~fixpoint:true p out
    | Probe p | Range p -> probe ctx p out
    | Index_order { idx_id; cls_id; order; _ } -> index_order ctx ~idx_id ~cls_id order out
    | Filter { plan; pred; input } ->
        let holds = predicate ctx plan.p_var pred in
        build ctx input ~parent:self (fun r -> if holds r then out r)
    | Sort { var; key = e; order; input } ->
        let key = key ctx var e in
        let rows = ref [] in
        let fill = build ctx input ~parent:self (fun r -> rows := (key r, r) :: !rows) in
        let cmp (a, _) (b, _) =
          match order with Ast.Asc -> Value.compare a b | Ast.Desc -> Value.compare b a
        in
        fun () ->
          fill ();
          List.iter (fun (_, r) -> out r) (List.stable_sort cmp (List.rev !rows))
    | Join _ | Output _ -> invalid_arg "Query: join or output below a single-extent operator"

(* Pair emission is outer-major (outer rows in extent order); within one
   outer row the inner order may differ between strategies, which [forall]
   nesting does not specify. Every emitted pair re-checks the full inner
   predicate with both variables bound, so a fused strategy can only skip
   non-matching work, never change results. A nested loop's inner side is
   replanned per outer row and runs unprofiled: its work is the join
   node's. *)
let join ctx (jp : Planner.join_plan) link ~self ~outer ~side emit =
  let ovar = jp.j_ovar and ivar = jp.j_ivar in
  let inner_ids =
    class_ids ctx.db
      (if jp.j_inner_deep then Catalog.subclasses ctx.db.catalog jp.j_inner_cls
       else [ jp.j_inner_cls ])
  in
  let inner i = if accept_class inner_ids i then Store.fetch ctx.db ctx.txn i else None in
  let pair =
    match link with
    | None -> fun _ _ -> true
    | Some e ->
        let frame, f = compile ctx [ ivar; ovar ] e in
        fun o i ->
          frame.(0) <- i;
          frame.(1) <- o;
          holds f frame
  in
  let counted c run () =
    Ode_util.Stats.incr c;
    run ()
  in
  match (jp.j_strategy, side) with
  | Planner.Nested_loop, _ ->
      counted c_planner_nested_joins
        (build ctx outer ~parent:self (fun o ->
             let env = (ovar, Value.Ref o.Store.oid) :: ctx.env in
             let inner =
               Planner.scan_tree ctx.db ?txn:ctx.txn ~env ~var:ivar ~cls:jp.j_inner_cls
                 ~deep:jp.j_inner_deep ~suchthat:link ()
             in
             build
               { ctx with env; bound = (ovar, o) :: ctx.bound; prof = None }
               inner ~parent:self
               (fun i -> emit o i)
               ()))
  | Planner.Fused_deref f, _ ->
      let field = field_key ctx ovar f in
      counted c_planner_fused_joins
        (build ctx outer ~parent:self (fun o ->
             match field o with
             | Value.Ref i -> (
                 match inner i with Some i when pair o i -> emit o i | _ -> ())
             | _ -> ()))
  | Planner.Fused_member f, _ ->
      let field = field_key ctx ovar f in
      counted c_planner_fused_joins
        (build ctx outer ~parent:self (fun o ->
             match field o with
             | Value.VSet vs | Value.VList vs ->
                 (* A list may hold the same ref twice; the nested loop
                    would still emit the pair once (the inner extent is the
                    driver there), so deduplicate per outer row. *)
                 let seen = Hashtbl.create 8 in
                 List.iter
                   (function
                     | Value.Ref i when not (Hashtbl.mem seen i) -> (
                         Hashtbl.replace seen i ();
                         match inner i with Some i when pair o i -> emit o i | _ -> ())
                     | _ -> ())
                   vs
             | _ -> ()))
  | Planner.Hash_join { outer_field; inner_field }, Some side ->
      (* One streamed pass over the build side, keyed by the
         order-preserving byte encoding of the join field. A build row
         the transaction has written since (an OCaml loop body may) is
         checked live again before it pairs. *)
      let tbl : (string, Store.row) Hashtbl.t = Hashtbl.create 256 in
      let ikey = field_key ctx ivar inner_field in
      let okey = field_key ctx ovar outer_field in
      let live (r : Store.row) = Store.current ctx.txn r || Store.exists ctx.db ctx.txn r.oid in
      let fill =
        build ctx side ~parent:self (fun i ->
            match ikey i with
            | v when Planner.indexable_value v -> Hashtbl.add tbl (Value.index_key v) i
            | _ -> ())
      in
      let probe =
        build ctx outer ~parent:self (fun o ->
            match okey o with
            | v when Planner.indexable_value v ->
                List.iter
                  (fun i -> if live i && pair o i then emit o i)
                  (* find_all returns latest-first; restore build order. *)
                  (List.rev (Hashtbl.find_all tbl (Value.index_key v)))
            | _ -> ())
      in
      counted c_planner_hash_joins (fun () ->
          fill ();
          probe ())
  | Planner.Hash_join _, None -> invalid_arg "Query: hash join without a build side"

(* The root: [Output] hands each row — one per loop variable, outermost
   first — to [body]. *)
let root ctx (t : Planner.tree) body =
  match t with
  | Output input ->
      operator ctx t body (fun self deliver ->
          match input with
          | Join { jp; link; outer; build = side } ->
              operator ctx input ~parent:self deliver (fun j out ->
                  join ctx jp link ~self:j ~outer ~side (fun o i -> out [ o; i ]))
          | single -> build ctx single ~parent:self (fun r -> deliver [ r ]))
  | _ -> invalid_arg "Query: a compiled forall is rooted at its output"

let context db txn env prof = { db; txn; env; bound = []; hooks = Runtime.hooks db txn; prof }

(* [profile] is [None] (off), [Some false] (light) or [Some true] (full). *)
let exec db ?txn ?profile (c : Planner.compiled) body =
  let prof =
    Option.map (fun full -> { full; mark_ns = 0; mark_stats = off_stats; nodes = [] }) profile
  in
  let ctx = context db txn c.c_env prof in
  let run = root ctx c.c_tree body in
  match prof with
  | None ->
      run ();
      None
  | Some p ->
      let start_ns = Ode_util.Trace.now_ns () and start_stats = Ode_util.Stats.snapshot () in
      p.mark_ns <- start_ns;
      p.mark_stats <- start_stats;
      run ();
      (* In full mode the last mark is the end. Light mode never moved the
         marks: one clock read and snapshot at the end give the totals. *)
      if not p.full then begin
        p.mark_ns <- Ode_util.Trace.now_ns ();
        p.mark_stats <- Ode_util.Stats.snapshot ()
      end;
      let pf =
        {
          pf_plan = Planner.explain_tree c.c_tree;
          pf_nodes = List.rev p.nodes;
          pf_rows = (List.hd p.nodes).ns_rows (* the output, registered last *);
          pf_total_ns = p.mark_ns - start_ns;
          pf_stats = Ode_util.Stats.diff p.mark_stats start_stats;
        }
      in
      if Ode_util.Trace.enabled () then begin
        Ode_util.Trace.emit ~cat:"query"
          ~args:[ ("plan", pf.pf_plan); ("rows", string_of_int pf.pf_rows) ]
          ~start_ns ~dur_ns:pf.pf_total_ns "query.execute";
        (* One span per plan node, full mode only — light profiles carry
           no per-node times, and a lane of zero-width spans is noise.
           Node times are aggregates over an interleaved streaming
           execution, so the spans are laid out sequentially inside the
           parent rather than at their (many) actual intervals. *)
        if p.full then
          ignore
            (List.fold_left
               (fun off n ->
                 Ode_util.Trace.emit ~cat:"query" ~depth:1
                   ~args:[ ("rows", string_of_int n.ns_rows) ]
                   ~start_ns:off ~dur_ns:n.ns_ns n.ns_label;
                 off + n.ns_ns)
               start_ns pf.pf_nodes)
      end;
      Some pf

let h_query = Ode_util.Histogram.create "query.execute"

(* When the slow-query log is armed, every query runs light-profiled
   (rows per node, whole-query time and counter totals) and the
   resulting profile is stashed here: the session layer, which times the
   whole request against the threshold, collects it if (and only if) the
   request turns out slow. *)
let last_profile : profile option ref = ref None

let take_last_profile () =
  let pf = !last_profile in
  last_profile := None;
  pf

let execute db ?txn c body =
  Ode_util.Histogram.time h_query (fun () ->
      let slow = Ode_util.Slowlog.armed () in
      let profile = if slow || Ode_util.Trace.enabled () then Some false else None in
      match exec db ?txn ?profile c body with
      | Some pf when slow -> last_profile := Some pf
      | _ -> ())

let execute_profiled db ?txn c body =
  Ode_util.Histogram.time h_query (fun () -> Option.get (exec db ?txn ~profile:true c body))

let single db ?txn ?env ?fixpoint ~var ~cls ?(deep = false) ?suchthat ?by () =
  Planner.compile db ?txn ?env ?fixpoint
    { q_var = var; q_cls = cls; q_deep = deep; q_suchthat = suchthat; q_by = by; q_body = [] }

let run db ?txn ?env ~var ~cls ?deep ?suchthat ?by ?fixpoint body =
  execute db ?txn
    (single db ?txn ?env ?fixpoint ~var ~cls ?deep ?suchthat ?by ())
    (fun row -> body (List.hd row).Store.oid)

let profile db ?txn ?env ~var ~cls ?deep ?suchthat ?by ?(body = fun _ -> ()) () =
  execute_profiled db ?txn
    (single db ?txn ?env ~var ~cls ?deep ?suchthat ?by ())
    (fun row -> body (List.hd row).Store.oid)

(* The Stats counters a profile reports per node, as (column, counter). *)
let profile_counters =
  [
    ("pages", "pages_read"); ("probes", "index_probes"); ("scanned", "objects_scanned");
    ("fetched", "objects_fetched"); ("cursor", "cursor_pages_read");
  ]

let profile_to_string pf =
  let open Ode_util in
  let num = string_of_int in
  let header = [ "node"; "rows"; "time" ] @ List.map fst profile_counters in
  let counters s = List.map (fun (_, c) -> num (Stats.get s c)) profile_counters in
  let rows =
    header
    :: List.map
         (fun n -> [ n.ns_label; num n.ns_rows; Histogram.format_ns n.ns_ns ] @ counters n.ns_stats)
         pf.pf_nodes
    @ [ [ "total"; num pf.pf_rows; Histogram.format_ns pf.pf_total_ns ] @ counters pf.pf_stats ]
  in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map (fun _ -> 0) header)
      rows
  in
  let render row =
    String.concat "  "
      (List.mapi
         (fun i (w, c) -> if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c)
         (List.combine widths row))
  in
  "plan: " ^ pf.pf_plan ^ "\n" ^ String.concat "\n" (List.map render rows)

(* The same attribution as [profile_to_string], rendered as one JSON
   object for the slow-query log. *)
let profile_to_json pf =
  let open Ode_util in
  let esc = Trace.json_escape in
  let counters s =
    String.concat ","
      (List.map (fun (k, c) -> Printf.sprintf "\"%s\":%d" k (Stats.get s c)) profile_counters)
  in
  let node n =
    Printf.sprintf "{\"op\":\"%s\",\"label\":\"%s\",\"rows\":%d,\"ns\":%d,%s}"
      (Planner.op_name n.ns_op) (esc n.ns_label) n.ns_rows n.ns_ns (counters n.ns_stats)
  in
  (* Whole-query counter totals: under a light profile (armed slow log)
     the per-node counters are all zero, so the totals object is where
     the log entry's physical-work numbers live. *)
  let totals = "{" ^ counters pf.pf_stats ^ "}" in
  Printf.sprintf "{\"plan\":\"%s\",\"rows\":%d,\"total_ns\":%d,\"totals\":%s,\"nodes\":[%s]}"
    (esc pf.pf_plan) pf.pf_rows pf.pf_total_ns totals
    (String.concat "," (List.map node pf.pf_nodes))

let fold db ?txn ?env ~var ~cls ?deep ?suchthat ?by ~init f =
  let acc = ref init in
  run db ?txn ?env ~var ~cls ?deep ?suchthat ?by (fun oid -> acc := f !acc oid);
  !acc

let to_list db ?txn ?env ~var ~cls ?deep ?suchthat ?by () =
  List.rev (fold db ?txn ?env ~var ~cls ?deep ?suchthat ?by ~init:[] (fun acc o -> o :: acc))

let count db ?txn ?deep ?suchthat ~var ~cls () =
  fold db ?txn ~var ~cls ?deep ?suchthat ~init:0 (fun n _ -> n + 1)

(* Early exit through the whole scan stack: the exception unwinds the
   streaming cursor in [Kv.iter_prefix] (or the index walk), so no further
   pages are read after the first match. *)
let exists db ?txn ?env ?deep ?suchthat ~var ~cls () =
  let exception Found in
  match run db ?txn ?env ~var ~cls ?deep ?suchthat (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* -- two-extent joins (collection-join fusion) ------------------------------ *)

(* The paper's two-variable [forall], as the statement would be written:
   an inner loop with no body nested in an outer one. *)
let nested ~outer:(ovar, ocls, odeep) ~inner:(ivar, icls, ideep) ?outer_suchthat ?inner_suchthat () =
  let loop q_var q_cls q_deep q_suchthat q_body =
    { Ast.q_var; q_cls; q_deep; q_suchthat; q_by = None; q_body }
  in
  if ivar = ovar then invalid_arg "Query.run_join: the loop variables must differ";
  loop ovar ocls odeep outer_suchthat [ SForall (loop ivar icls ideep inner_suchthat []) ]

let run_join db ?txn ?env ~outer ~inner ?outer_suchthat ?inner_suchthat body =
  execute db ?txn
    (Planner.compile db ?txn ?env (nested ~outer ~inner ?outer_suchthat ?inner_suchthat ()))
    (function [ (o : Store.row); i ] -> body o.oid i.oid | _ -> assert false)

let explain_join db ?txn ?env ~outer ~inner ?outer_suchthat ?inner_suchthat () =
  Planner.explain_tree
    (Planner.compile db ?txn ?env (nested ~outer ~inner ?outer_suchthat ?inner_suchthat ())).c_tree

let join2 db ?txn ~outer:(ovar, ocls) ~inner:(ivar, icls) ?(deep = false) ?suchthat body =
  run_join db ?txn ~outer:(ovar, ocls, deep) ~inner:(ivar, icls, deep) ?inner_suchthat:suchthat
    body

let explain db ?env ~var ~cls ?deep ?suchthat () =
  Planner.explain_tree (single db ?env ~var ~cls ?deep ?suchthat ()).c_tree

(* -- aggregates ------------------------------------------------------------- *)

(* The paper's §3.1 loops ("average income of all persons") packaged as
   combinators: evaluate [expr] for every qualifying object and combine.
   Null results of [expr] are skipped, like SQL aggregates skip NULL. *)

let aggregate db ?txn ?(env = []) ~var ~cls ?deep ?suchthat ~expr ~init ~combine () =
  let c = single db ?txn ~env ~var ~cls ?deep ?suchthat () in
  let value = key (context db txn env None) var expr in
  let acc = ref init in
  execute db ?txn c (fun row ->
      match value (List.hd row) with Value.Null -> () | v -> acc := combine !acc v);
  !acc

let as_float = function
  | Value.Int n -> float_of_int n
  | Value.Float f -> f
  | v -> raise (Eval.Error (Fmt.str "aggregate over non-numeric value %a" Value.pp v))

let sum db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:0.0
    ~combine:(fun acc v -> acc +. as_float v)
    ()

let average db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  let total, n =
    aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:(0.0, 0)
      ~combine:(fun (t, n) v -> (t +. as_float v, n + 1))
      ()
  in
  if n = 0 then None else Some (total /. float_of_int n)

(* The first value [keeps] prefers to every later one. *)
let extreme keeps db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:None
    ~combine:(fun acc v -> match acc with Some m when keeps (Value.compare m v) -> acc | _ -> Some v)
    ()

let minimum = extreme (fun c -> c <= 0)
let maximum = extreme (fun c -> c >= 0)

(* [group_count db ~expr ...] — how many objects per value of [expr]; the
   building block of the paper's per-class reports. *)
let group_count db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  let groups : (Value.t, int) Hashtbl.t = Hashtbl.create 16 in
  let (_ : int) =
    aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:0
      ~combine:(fun n v ->
        Hashtbl.replace groups v (1 + Option.value (Hashtbl.find_opt groups v) ~default:0);
        n + 1)
      ()
  in
  List.sort
    (fun (a, _) (b, _) -> Value.compare a b)
    (Hashtbl.fold (fun v n acc -> (v, n) :: acc) groups [])
