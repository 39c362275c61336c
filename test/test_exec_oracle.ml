(* Result-identity oracle for the query executor (paper §3).

   A deliberately naive reference evaluator runs over a logical [Dump]
   snapshot of the store: it full-scans every extent, evaluates the whole
   [suchthat] for each object, stable-sorts for [by], runs every
   two-variable [forall] as a nested loop, and runs fixpoint iteration as
   a worklist. A seeded QCheck suite generates random index layouts, data
   and single- and two-extent queries (reusing [Test_lang]'s expression
   generator for opaque conjuncts) and compares the real planner and
   executor against the reference in five configurations: no statistics
   (default selectivities and cardinalities), fresh statistics after
   [analyze], stale statistics (analyzed, then churned past
   [Ostats.stale]'s threshold: real cardinalities, default
   selectivities), a snapshot pinned before a concurrent commit, and a
   transaction with pending writes. Queries go
   through the OCaml API ([Query.to_list], [Query.run_join],
   [Query.run ~fixpoint]) and through the statement interpreter. The run
   fails unless the compiled trees used every access path, both orderings
   (index order and sort), deep iteration and every join strategy.

   Reproduce a failure with ORACLE_SEED=<seed> (default 17); ORACLE_COUNT
   sets the number of generated cases (default 40). *)

module Db = Ode.Database
module Query = Ode.Query
module Planner = Ode.Planner
module Interp = Ode.Interp
module Ast = Ode_lang.Ast
module Pp = Ode_lang.Pp
module Parser = Ode_lang.Parser
module Value = Ode_model.Value
module Oid = Ode_model.Oid
module Eval = Ode_model.Eval
module OM = Map.Make (Oid)

(* [d] has two parents, and records store fields by slot in the
   linearized order (e, a, d): [a]'s fields sit one slot later in a [d]
   than in an [a] or a [b], so scans, probes and residuals over [a*] read
   one name at two slots. *)
let schema =
  {|class a { k: int; m: int; s: string; };
    class b : a { n: int; };
    class c { k: int; g: int; r: ref a; rs: set<ref a>; };
    class e { w: int; };
    class d : e, a { };
    class node { v: int; };|}

(* Every index the generator may declare; [b(k)] and [d(k)] are subclass
   indexes on an inherited field, so ancestor-index lookups are exercised
   both ways. *)
let index_choices =
  [
    ("a", "k"); ("a", "m"); ("a", "s"); ("b", "n"); ("b", "k"); ("d", "k"); ("c", "k"); ("c", "g");
    ("node", "v");
  ]

let int_fields = function
  | "a" -> [ "k"; "m" ]
  | "b" -> [ "k"; "m"; "n" ]
  | "d" -> [ "k"; "m"; "w" ]
  | _ -> [ "k"; "g" ]

(* -- the reference model: a Dump snapshot read back naively --------------- *)

type model = { parents : (string * string list) list; objs : (string * (string * Value.t) list) OM.t }

(* [Dump.var_of_oid]'s "_o<cls>_<num>" names the source object. *)
let oid_of_var v =
  Scanf.sscanf (String.map (function '_' -> ' ' | c -> c) v) " o%d %d" (fun cls num -> { Oid.cls; num })

(* A dump names every live object by its oid (a reference to a deleted
   object is written as null), so each name is bound to the reference it
   spells. *)
let rec value (e : Ast.expr) =
  match e with
  | Var v -> Value.Ref (oid_of_var v)
  | SetLit es -> Value.set_of_list (List.map value es)
  | ListLit es -> Value.VList (List.map value es)
  | e -> Eval.eval Eval.null_hooks ~vars:[] ~this:None e

let model_of_dump db =
  let parents = ref [] and objs = ref OM.empty in
  List.iter
    (fun (top : Ast.top) ->
      match top with
      | TClass d -> parents := (d.c_name, d.c_parents) :: !parents
      | TStmt (SNew (Some v, cls, inits)) ->
          objs := OM.add (oid_of_var v) (cls, List.map (fun (f, e) -> (f, value e)) inits) !objs
      | TStmt (SSetField (Var v, f, e)) ->
          let oid = oid_of_var v in
          let cls, fs = OM.find oid !objs in
          objs := OM.add oid (cls, (f, value e) :: List.remove_assoc f fs) !objs
      | _ -> ())
    (Parser.program (Ode.Dump.export db));
  { parents = !parents; objs = !objs }

let rec is_sub m sub super =
  sub = super
  || List.exists (fun p -> is_sub m p super) (Option.value (List.assoc_opt sub m.parents) ~default:[])

let hooks m : Eval.hooks =
  {
    Eval.null_hooks with
    get_field =
      (fun oid f ->
        match OM.find_opt oid m.objs with Some (_, fs) -> List.assoc_opt f fs | None -> None);
    class_of = (fun oid -> Option.map fst (OM.find_opt oid m.objs));
    is_subclass = (fun ~sub ~super -> is_sub m sub super);
  }

let holds m vars e =
  match Eval.eval (hooks m) ~vars ~this:None e with
  | v -> ( try Eval.truthy v with Eval.Error _ -> false)
  | exception Eval.Error _ -> false

let key_of m vars e =
  match Eval.eval (hooks m) ~vars ~this:None e with v -> v | exception Eval.Error _ -> Value.Null

let extent m cls deep =
  OM.fold
    (fun oid (c, _) acc -> if c = cls || (deep && is_sub m c cls) then oid :: acc else acc)
    m.objs []
  |> List.rev

(* -- generated cases -------------------------------------------------------- *)

type single = {
  s_cls : string;
  s_deep : bool;
  s_st : Ast.expr option;
  s_by : (Ast.expr * Ast.order) option;
}

type join = {
  j_outer : string * string * bool;
  j_inner : string * string * bool;
  j_ost : Ast.expr option;
  j_ist : Ast.expr option;
}

type case = {
  indexes : (string * string) list;
  a_rows : (int * int * string) list;
  b_rows : (int * int * string * int) list;
  d_rows : (int * int * string * int) list;
  c_rows : (int * int * int option * int list) list;  (** r and rs index into a @ b @ d *)
  nodes : int list;
  singles : single list;
  joins : join list;
  fix_limit : int;
  write_seed : int;
}

(* Shell-style bindings every query sees: [lim] for sargable conjuncts
   against a variable, and the [v0]..[v19] names [Test_lang.expr_gen]
   draws from, so its random expressions evaluate rather than fail. *)
let env = ("lim", Value.Int 3) :: List.init 20 (fun i -> (Printf.sprintf "v%d" i, Value.Int (i mod 8)))

let pick rs l = List.nth l (Random.State.int rs (List.length l))
let small rs = Random.State.int rs 8
let fld v f = Ast.Field (Ast.Var v, f)

let conjunct rs var cls =
  let f = pick rs (int_fields cls) in
  let op = pick rs Ast.[ Eq; Eq; Lt; Le; Gt; Ge; Ne ] in
  match Random.State.int rs 9 with
  | 0 | 1 | 2 -> Ast.Binop (op, fld var f, Int (small rs))
  | 3 -> Binop (op, Int (small rs), fld var f)
  | 4 -> Binop (pick rs Ast.[ Eq; Lt; Ge ], fld var f, Var "lim")
  | 5 -> Binop (Eq, fld var "k", fld var (pick rs (List.tl (int_fields cls))))
  | 6 when cls <> "c" -> Binop (Eq, fld var "s", Str (Printf.sprintf "s%d" (Random.State.int rs 4)))
  | 7 when cls <> "c" -> Is (Var var, "b")
  | _ -> Binop (Or, Binop (Ge, fld var f, Int (small rs)), Test_lang.expr_gen rs)

let rec conjoin = function
  | [] -> None
  | [ e ] -> Some e
  | e :: rest -> Option.map (fun r -> Ast.Binop (And, e, r)) (conjoin rest)

let conj_of rs var cls n =
  conjoin (List.init (Random.State.int rs (n + 1)) (fun _ -> conjunct rs var cls))

let gen_single rs =
  let s_cls, s_deep =
    pick rs [ ("a", false); ("a", true); ("b", false); ("b", true); ("c", false); ("d", false) ]
  in
  let s_by =
    match Random.State.int rs 5 with
    | 0 | 1 -> None
    | 2 | 3 -> Some (fld "x" (pick rs (int_fields s_cls)), pick rs Ast.[ Asc; Desc ])
    | _ -> Some (Ast.Binop (Add, fld "x" "k", fld "x" "m"), pick rs Ast.[ Asc; Desc ])
  in
  { s_cls; s_deep; s_st = conj_of rs "x" s_cls 3; s_by }

let gen_join rs =
  let ((_, ocls, _) as j_outer) = pick rs [ ("o", "c", false); ("o", "a", false); ("o", "a", true) ] in
  let ((_, icls, _) as j_inner) =
    pick rs [ ("i", "a", false); ("i", "a", true); ("i", "b", false); ("i", "c", false); ("i", "d", false) ]
  in
  let link =
    let eq = Ast.Binop (Eq, fld "i" "k", fld "o" (pick rs (int_fields ocls))) in
    if ocls = "c" && icls <> "c" then
      pick rs
        Ast.
          [
            Binop (Eq, Var "i", fld "o" "r");
            Binop (Eq, fld "o" "r", Var "i");
            Binop (In, Var "i", fld "o" "rs");
            eq;
          ]
    else pick rs Ast.[ eq; Binop (Eq, fld "o" "k", fld "i" "k"); Binop (Lt, fld "i" "k", fld "o" "k") ]
  in
  let inner_only = conj_of rs "i" icls 1 in
  {
    j_outer;
    j_inner;
    j_ost = conj_of rs "o" ocls 1;
    j_ist = conjoin (link :: Option.to_list inner_only);
  }

let gen_case : case QCheck.Gen.t =
 fun rs ->
  let rows n f = List.init (Random.State.int rs (n + 1)) (fun _ -> f ()) in
  let str () = Printf.sprintf "s%d" (Random.State.int rs 4) in
  let a_rows = rows 12 (fun () -> (small rs, small rs, str ())) in
  let b_rows = rows 8 (fun () -> (small rs, small rs, str (), small rs)) in
  let d_rows = rows 6 (fun () -> (small rs, small rs, str (), small rs)) in
  let nab = List.length a_rows + List.length b_rows + List.length d_rows in
  let target () = Random.State.int rs (max 1 nab) in
  let c_rows =
    rows 8 (fun () ->
        ( small rs,
          small rs,
          (if nab > 0 && Random.State.int rs 4 > 0 then Some (target ()) else None),
          if nab > 0 then List.init (Random.State.int rs 4) (fun _ -> target ()) else [] ))
  in
  {
    indexes = List.filter (fun _ -> Random.State.bool rs) index_choices;
    a_rows;
    b_rows;
    d_rows;
    c_rows;
    nodes = List.init (1 + Random.State.int rs 3) (fun _ -> Random.State.int rs 4);
    singles = List.init 6 (fun _ -> gen_single rs);
    joins = List.init 4 (fun _ -> gen_join rs);
    fix_limit = Random.State.int rs 7;
    write_seed = Random.State.bits rs;
  }

let opt_expr = function Some e -> " suchthat " ^ Pp.expr_to_string e | None -> ""

let single_text q =
  Printf.sprintf "forall x in %s%s%s%s" q.s_cls (if q.s_deep then "*" else "") (opt_expr q.s_st)
    (match q.s_by with
    | Some (e, o) -> " by " ^ Pp.expr_to_string e ^ if o = Ast.Desc then " desc" else ""
    | None -> "")

let join_text j =
  let side (v, c, d) = Printf.sprintf "%s in %s%s" v c (if d then "*" else "") in
  Printf.sprintf "forall %s%s { forall %s%s }" (side j.j_outer) (opt_expr j.j_ost) (side j.j_inner)
    (opt_expr j.j_ist)

let print_case c =
  String.concat "\n"
    ([
       "indexes: " ^ String.concat " " (List.map (fun (c, f) -> c ^ "(" ^ f ^ ")") c.indexes);
       Printf.sprintf "objects: %d a, %d b, %d d, %d c, nodes [%s]; fixpoint limit %d; write seed %d"
         (List.length c.a_rows) (List.length c.b_rows) (List.length c.d_rows) (List.length c.c_rows)
         (String.concat ";" (List.map string_of_int c.nodes))
         c.fix_limit c.write_seed;
     ]
    @ List.map single_text c.singles
    @ List.map join_text c.joins)

(* -- loading and writing --------------------------------------------------- *)

let load c =
  let db = Db.open_in_memory () in
  ignore (Db.define db schema);
  List.iter (Db.create_cluster db) [ "a"; "b"; "c"; "d"; "node" ];
  List.iter (fun (cls, field) -> Db.create_index db ~cls ~field) c.indexes;
  Db.with_txn db (fun txn ->
      let i n = Value.Int n in
      let abs =
        List.map (fun (k, m, s) -> Db.pnew txn "a" [ ("k", i k); ("m", i m); ("s", Str s) ]) c.a_rows
        @ List.map
            (fun (k, m, s, n) -> Db.pnew txn "b" [ ("k", i k); ("m", i m); ("s", Str s); ("n", i n) ])
            c.b_rows
        @ List.map
            (fun (k, m, s, w) -> Db.pnew txn "d" [ ("k", i k); ("m", i m); ("s", Str s); ("w", i w) ])
            c.d_rows
      in
      let ref_to t = Value.Ref (List.nth abs t) in
      List.iter
        (fun (k, g, r, rs) ->
          ignore
            (Db.pnew txn "c"
               [ ("k", i k); ("g", i g);
                 ("r", match r with Some t -> ref_to t | None -> Value.Null);
                 ("rs", Value.set_of_list (List.map ref_to rs)) ]))
        c.c_rows;
      List.iter (fun v -> ignore (Db.pnew txn "node" [ ("v", i v) ])) c.nodes);
  db

(* Random field updates, creates and deletes, applied through [txn] and to
   the reference model alike. Returns the model as the writes leave it. *)
let apply_writes rs txn m n =
  let set oid f v m =
    Db.set_field txn oid f v;
    let cls, fs = OM.find oid m.objs in
    { m with objs = OM.add oid (cls, (f, v) :: List.remove_assoc f fs) m.objs }
  in
  let rec go m n =
    if n = 0 then m
    else
      let live = List.filter (fun (_, (cls, _)) -> cls <> "node") (OM.bindings m.objs) in
      let abs = List.filter (fun (_, (cls, _)) -> cls <> "c") live in
      let m =
        match Random.State.int rs 5 with
        | (0 | 1) when live <> [] ->
            let oid, (cls, _) = pick rs live in
            set oid (pick rs (int_fields cls)) (Value.Int (small rs)) m
        | 2 when live <> [] ->
            let oid, _ = pick rs live in
            Db.pdelete txn oid;
            { m with objs = OM.remove oid m.objs }
        | 3 when abs <> [] && List.exists (fun (_, (cls, _)) -> cls = "c") live ->
            let oid, _ = pick rs (List.filter (fun (_, (cls, _)) -> cls = "c") live) in
            set oid "r" (Value.Ref (fst (pick rs abs))) m
        | _ ->
            let cls = pick rs [ "a"; "b"; "c"; "d" ] in
            let fields =
              List.map (fun f -> (f, Value.Int (small rs))) (int_fields cls)
              @ (if cls = "c" then [ ("r", Value.Null); ("rs", Value.VSet []) ]
                 else [ ("s", Value.Str (Printf.sprintf "s%d" (Random.State.int rs 4))) ])
            in
            let oid = Db.pnew txn cls fields in
            { m with objs = OM.add oid (cls, fields) m.objs }
      in
      go m (n - 1)
  in
  go m n

(* -- comparing ------------------------------------------------------------- *)

let fail what text fmt = Printf.ksprintf (fun s -> Alcotest.failf "[%s] %s: %s" what text s) fmt
let show oids = String.concat " " (List.map (fun o -> Value.to_string (Value.Ref o)) oids)

let check_single ~what db txn m q =
  let text = single_text q in
  let vars oid = ("x", Value.Ref oid) :: env in
  let want =
    let rows = List.filter (fun o -> Option.fold ~none:true ~some:(holds m (vars o)) q.s_st)
        (extent m q.s_cls q.s_deep) in
    match q.s_by with
    | None -> rows
    | Some (e, ord) ->
        let keyed = List.map (fun o -> (key_of m (vars o) e, o)) rows in
        let cmp (a, _) (b, _) = if ord = Ast.Asc then Value.compare a b else Value.compare b a in
        List.map snd (List.stable_sort cmp keyed)
  in
  let agree got =
    List.sort Oid.compare got = List.sort Oid.compare want
    &&
    match q.s_by with
    | None -> true
    | Some (e, _) ->
        List.for_all2
          (fun a b -> Value.compare (key_of m (vars a) e) (key_of m (vars b) e) = 0)
          got want
  in
  let got = Query.to_list db ?txn ~env ~var:"x" ~cls:q.s_cls ~deep:q.s_deep ?suchthat:q.s_st ?by:q.s_by () in
  if not (agree got) then fail what text "Query.to_list gave [%s], reference [%s]" (show got) (show want);
  (* The same loop through the statement interpreter. *)
  let printed = ref [] in
  let run_stmt txn =
    let ienv = Interp.env ~print:(fun s -> printed := String.trim s :: !printed) () in
    List.iter (fun (n, v) -> Interp.define_var ienv n v) env;
    Interp.exec_stmt txn ienv
      (SForall
         { q_var = "x"; q_cls = q.s_cls; q_deep = q.s_deep; q_suchthat = q.s_st; q_by = q.s_by;
           q_body = [ SPrint [ Var "x" ] ] })
  in
  (match txn with Some t -> run_stmt t | None -> Db.with_read_txn db run_stmt);
  let by_name = List.map (fun o -> (Value.to_string (Value.Ref o), o)) (OM.bindings m.objs |> List.map fst) in
  let got_i = List.rev_map (fun l -> List.assoc l by_name) !printed in
  if not (agree got_i) then fail what text "forall statement printed [%s], reference [%s]" (show got_i) (show want)

let check_join ~what db txn m j =
  let text = join_text j in
  let (ov, oc, od), (iv, ic, id) = (j.j_outer, j.j_inner) in
  let want =
    List.concat_map
      (fun o ->
        let ovars = (ov, Value.Ref o) :: env in
        if not (Option.fold ~none:true ~some:(holds m ovars) j.j_ost) then []
        else
          List.filter_map
            (fun i ->
              if Option.fold ~none:true ~some:(holds m ((iv, Value.Ref i) :: ovars)) j.j_ist then
                Some (o, i)
              else None)
            (extent m ic id))
      (extent m oc od)
    |> List.sort compare
  in
  let got = ref [] in
  Query.run_join db ?txn ~env ~outer:j.j_outer ~inner:j.j_inner ?outer_suchthat:j.j_ost
    ?inner_suchthat:j.j_ist (fun o i -> got := (o, i) :: !got);
  let show ps = String.concat " " (List.map (fun (o, i) -> show [ o; i ]) ps) in
  let got = List.sort compare !got in
  if got <> want then fail what text "Query.run_join gave [%s], reference [%s]" (show got) (show want);
  let printed = ref [] in
  let run_stmt txn =
    let ienv = Interp.env ~print:(fun s -> printed := String.trim s :: !printed) () in
    List.iter (fun (n, v) -> Interp.define_var ienv n v) env;
    let inner = { Ast.q_var = iv; q_cls = ic; q_deep = id; q_suchthat = j.j_ist; q_by = None;
                  q_body = [ SPrint [ Var ov; Var iv ] ] } in
    Interp.exec_stmt txn ienv
      (SForall { q_var = ov; q_cls = oc; q_deep = od; q_suchthat = j.j_ost; q_by = None;
                 q_body = [ SForall inner ] })
  in
  (match txn with Some t -> run_stmt t | None -> Db.with_read_txn db run_stmt);
  let want_text = List.sort compare (List.map (fun (o, i) -> show [ (o, i) ]) want) in
  if List.sort compare !printed <> want_text then
    fail what text "forall statement printed [%s], reference [%s]"
      (String.concat " | " (List.sort compare !printed)) (String.concat " | " want_text)

(* Fixpoint: every visited node below 5 inserts a successor node, which the
   iteration must visit too. The reference is a worklist over the model;
   new objects are compared by value, their oids being fresh. *)
let check_fixpoint ~what db txn m c =
  let st = Ast.Binop (Lt, fld "n" "v", Int c.fix_limit) in
  let visited = ref [] in
  Query.run db ~txn ~var:"n" ~cls:"node" ~suchthat:st ~fixpoint:true (fun oid ->
      match Db.get_field txn oid "v" with
      | Value.Int v ->
          visited := v :: !visited;
          if v < 5 then ignore (Db.pnew txn "node" [ ("v", Value.Int (v + 1)) ])
      | _ -> ());
  let rec work acc = function
    | [] -> acc
    | v :: rest -> if v < c.fix_limit then work (v :: acc) (if v < 5 then (v + 1) :: rest else rest) else work acc rest
  in
  let start =
    List.filter_map
      (fun o -> match List.assoc "v" (snd (OM.find o m.objs)) with Value.Int v -> Some v | _ -> None)
      (extent m "node" false)
  in
  let want = List.sort compare (work [] start) and got = List.sort compare !visited in
  if got <> want then
    fail what "fixpoint over node" "visited [%s], reference [%s]"
      (String.concat " " (List.map string_of_int got))
      (String.concat " " (List.map string_of_int want))

(* -- strategy coverage ------------------------------------------------------ *)

let seen : (string, int) Hashtbl.t = Hashtbl.create 16
let saw k = Hashtbl.replace seen k (1 + Option.value (Hashtbl.find_opt seen k) ~default:0)

(* Strategies are read off the compiled tree, which is what runs. *)
let rec record (t : Planner.tree) =
  saw (Planner.op_name t);
  match t with
  | Filter { input; _ } | Sort { input; _ } | Output input -> record input
  | Join { jp; outer; build; _ } ->
      saw
        (match jp.j_strategy with
        | Nested_loop -> "nested"
        | Fused_deref _ -> "deref"
        | Fused_member _ -> "member"
        | Hash_join _ -> "hash");
      record outer;
      Option.iter record build
  | Scan _ | Probe _ | Range _ | Fixpoint _ | Index_order _ -> ()

let record_single db txn q =
  if q.s_deep then saw "deep";
  record
    (Planner.compile db ?txn ~env
       { q_var = "x"; q_cls = q.s_cls; q_deep = q.s_deep; q_suchthat = q.s_st; q_by = q.s_by;
         q_body = [] })
      .c_tree

let record_join db txn j =
  let (ov, oc, od), (iv, ic, id) = (j.j_outer, j.j_inner) in
  let inner = { Ast.q_var = iv; q_cls = ic; q_deep = id; q_suchthat = j.j_ist; q_by = None; q_body = [] } in
  record
    (Planner.compile db ?txn ~env
       { q_var = ov; q_cls = oc; q_deep = od; q_suchthat = j.j_ost; q_by = None;
         q_body = [ SForall inner ] })
      .c_tree

let run_all ~what db txn m c =
  List.iter
    (fun q ->
      record_single db txn q;
      check_single ~what db txn m q)
    c.singles;
  List.iter
    (fun j ->
      record_join db txn j;
      check_join ~what db txn m j)
    c.joins

(* Committed random writes until the statistics go stale: more header
   creates and deletes since [analyze] than [Ostats.stale] tolerates.
   Every case goes stale within a few dozen transactions; the cap turns a
   regression in [Ostats]' counting of creates and deletes into a
   failure rather than a hang. *)
let max_churn = 1_000

let churn rs db m =
  let rec go n m =
    if Db.stats_stale db then m
    else if n = max_churn then
      Alcotest.failf "Ostats.stale still false after %d churn transactions: header creates and deletes uncounted"
        max_churn
    else go (n + 1) (Db.with_txn db (fun w -> apply_writes rs w m 10))
  in
  go 0 m

let check_case c =
  let db = load c in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let rs = Random.State.make [| c.write_seed |] in
  let m = model_of_dump db in
  run_all ~what:"no statistics" db None m c;
  ignore (Db.analyze db);
  run_all ~what:"after analyze" db None m c;
  let m = churn rs db m in
  run_all ~what:"stale statistics" db None m c;
  ignore (Db.analyze db);
  (* A snapshot pinned before a concurrent commit still sees [m]. *)
  Db.with_read_txn db (fun pinned ->
      Db.with_txn db (fun w -> ignore (apply_writes rs w m (1 + Random.State.int rs 6)));
      run_all ~what:"pinned snapshot" db (Some pinned) m c);
  let m = model_of_dump db in
  run_all ~what:"after concurrent commit" db None m c;
  (* Pending writes, visible only inside their own transaction. *)
  let t = Db.begin_txn db in
  Fun.protect ~finally:(fun () -> Db.abort t) @@ fun () ->
  let m = apply_writes rs t m (1 + Random.State.int rs 6) in
  run_all ~what:"pending writes" db (Some t) m c;
  check_fixpoint ~what:"pending writes" db t m c;
  true

let seed = match Sys.getenv_opt "ORACLE_SEED" with Some s -> int_of_string s | None -> 17
let count = match Sys.getenv_opt "ORACLE_COUNT" with Some s -> int_of_string s | None -> 40

let oracle () =
  Hashtbl.reset seen;
  let prop =
    QCheck.Test.make ~name:"executor = reference evaluator" ~count
      (QCheck.make ~print:print_case gen_case)
      check_case
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| seed |]) prop;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then
        Alcotest.failf "strategy %s never chosen in %d cases (seed %d)" k count seed)
    [ "probe"; "range"; "scan"; "index order"; "sort"; "deep"; "deref"; "member"; "hash"; "nested" ]

let suite = [ ("exec_oracle", [ Alcotest.test_case "executor matches reference" `Quick oracle ]) ]
