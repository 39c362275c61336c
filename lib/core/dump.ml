module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
open Types

let var_of_oid (oid : Oid.t) = Printf.sprintf "_o%d_%d" oid.cls oid.num

(* Render a value as a parseable surface-language expression; references
   become the per-object variables bound earlier in the script. A reference
   to an object that is no longer live has no variable (and oids are
   reassigned on import anyway), so it is written as [null]. *)
let rec value_expr ~live (v : Value.t) =
  match v with
  | Null -> "null"
  | Int n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Float f ->
      let s = Printf.sprintf "%.17g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Bool b -> if b then "true" else "false"
  | Str s -> Ode_lang.Pp.expr_to_string (Ode_lang.Ast.Str s)
  | (Ref oid | Vref { oid; _ }) when not (live oid) -> "null"
  | Ref oid -> var_of_oid oid
  | Vref vr -> Printf.sprintf "vref(%s, %d)" (var_of_oid vr.oid) vr.ver
  | VSet vs -> "{" ^ String.concat ", " (List.map (value_expr ~live) vs) ^ "}"
  | VList vs -> "[" ^ String.concat ", " (List.map (value_expr ~live) vs) ^ "]"

(* Fields whose value is representable without forward references in pass 1
   (scalars); refs, vrefs and containers move to pass 2 updates. *)
let scalar (v : Value.t) =
  match v with Null | Int _ | Float _ | Bool _ | Str _ -> true | Ref _ | Vref _ | VSet _ | VList _ -> false

let export db =
  if Hashtbl.length db.wtxns > 0 then Ode_util.Ode_error.user "dump cannot run inside a transaction";
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  out "// ode-ml logical dump";
  (* 1. Schema, in definition order (parents precede children). *)
  List.iter
    (fun (c : Schema.cls) -> out "%s" (Ode_lang.Pp.class_to_string (Schema.to_decl c)))
    (Catalog.all db.catalog);
  List.iter
    (fun (c : Schema.cls) -> if c.cluster_created then out "create cluster %s;" c.name)
    (Catalog.all db.catalog);
  List.iter (fun (cls, field) -> out "create index on %s(%s);" cls field) (Catalog.indexes db.catalog);
  (* 2. Pass 1: create every object (version 0 scalar state). *)
  let objects = ref [] in
  List.iter
    (fun (c : Schema.cls) ->
      Kv.iter_prefix db (Keys.header_prefix_class c.id) (fun key payload ->
          let oid = Keys.oid_of_header_key key in
          let h, slots = Store.decode_object db oid payload in
          objects := (oid, (h, Store.named_fields db oid slots)) :: !objects;
          true))
    (Catalog.all db.catalog);
  let objects = List.rev !objects in
  let dead = ref [] in
  let live oid = Store.exists db None oid || (dead := oid :: !dead; false) in
  let value_expr = value_expr ~live in
  (* [lhs := v;], after a note naming the deleted objects [v] referred to. *)
  let assign lhs v =
    dead := [];
    let e = value_expr v in
    if !dead <> [] then
      out "// note: %s referred to deleted %s, written as null" lhs
        (String.concat ", " (List.rev_map var_of_oid !dead));
    out "%s := %s;" lhs e
  in
  (* The current version's fields are in the object record; older ones
     have records of their own. *)
  let fields_of (oid : Oid.t) ((h : Store.header), cur) ver =
    if ver = h.hcurrent then cur
    else Option.value (Store.get_fields_v db None { oid; ver }) ~default:[]
  in
  List.iter
    (fun ((oid : Oid.t), ((h : Store.header), _ as o)) ->
      let cls = Option.get (Catalog.find_by_id db.catalog oid.cls) in
      let v0 = List.hd (List.sort Int.compare h.hversions) in
      let fields = fields_of oid o v0 in
      let inits =
        List.filter_map
          (fun (n, v) -> if scalar v then Some (Printf.sprintf "%s = %s" n (value_expr v)) else None)
          fields
      in
      out "%s := pnew %s { %s };" (var_of_oid oid) cls.name (String.concat ", " inits))
    objects;
  (* 3. Pass 2: reference/container fields of the first version, then the
     whole version history in order. *)
  List.iter
    (fun ((oid : Oid.t), ((h : Store.header), cur as o)) ->
      let versions = List.sort Int.compare h.hversions in
      let v0 = List.hd versions in
      let var = var_of_oid oid in
      let emit_fields ?(only_nonscalar = false) ver =
        let fields = fields_of oid o ver in
        List.iter
          (fun (n, v) ->
            if (not only_nonscalar) || not (scalar v) then
              if v <> Value.Null || not only_nonscalar then assign (var ^ "." ^ n) v)
          fields
      in
      emit_fields ~only_nonscalar:true v0;
      List.iter
        (fun ver ->
          out "newversion %s;" var;
          emit_fields ver)
        (List.tl versions);
      (* Re-point 'current' if it is not the newest version (a later version
         was deleted after a promotion we cannot replay; the dump recreates
         contiguous version numbers, so we only preserve the *current
         state*: replaying [versions] already leaves the newest as current,
         matching h.hcurrent = max when no middle promotion happened. When
         h.hcurrent is not the maximum, materialize its state once more. *)
      let newest = List.fold_left max v0 versions in
      if h.hcurrent <> newest then begin
        out "// note: source object's current version was %d, not the newest" h.hcurrent;
        List.iter (fun (n, v) -> assign (var ^ "." ^ n) v) cur
      end)
    objects;
  (* 4. Named roots. *)
  Kv.iter_prefix db "R" (fun key payload ->
      let name = Keys.root_name key in
      let v = Value.decode (Ode_util.Codec.cursor payload) in
      out "// root %s" name;
      assign "_root" v;
      out "setroot(\"%s\", _root);" name;
      true);
  (* 5. Trigger activations (active ones only; ids are reassigned). *)
  Kv.iter_prefix db Keys.trigger_prefix (fun key payload ->
      let a = Triggers.decode_activation db key payload in
      if a.active && a.deadline = None then
        out "activate %s.%s(%s);" (var_of_oid a.aoid) a.tname
          (String.concat ", " (List.map value_expr a.targs));
      true);
  (* 6. Planner statistics: replaying `analyze` at the end re-collects
     them over the just-imported objects, so the restored store plans
     like the source did. *)
  if db.stats.st_analyzed then out "analyze;";
  Buffer.contents b

(* A minimal script driver (DDL + autocommitted statements): dumps contain
   no transaction control, explain, or clock statements. *)
let import db script =
  let env = Interp.env ~print:ignore () in
  List.iter
    (fun (top : Ode_lang.Ast.top) ->
      match top with
      | TClass decl -> ignore (Database.define_class db decl)
      | TCreateCluster c -> Database.create_cluster db c
      | TCreateIndex (c, f) -> Database.create_index db ~cls:c ~field:f
      | TStmt s -> Database.with_txn db (fun txn -> Interp.exec_stmt txn env s)
      | TAnalyze -> ignore (Database.analyze db)
      | TBegin | TCommit | TAbort | TShowClasses | TShowStats | TVerify | TDump | TLoad _
      | TExplain _ | TAdvance _ ->
          invalid_arg "dump: unexpected statement in dump script")
    (Ode_lang.Parser.program script)
