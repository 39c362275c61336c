module Ast = Ode_lang.Ast
module Codec = Ode_util.Codec

let schema_error fmt = Ode_util.Ode_error.user ("schema error: " ^^ fmt)

(* Where an object's fields sit in its record: [all_fields] as an array,
   and each field name's slot in it. *)
type layout = { fields : Schema.field array; slots : (string, int) Hashtbl.t }

type t = {
  by_name : (string, Schema.cls) Hashtbl.t;
  by_id : (int, Schema.cls) Hashtbl.t;
  mutable order : string list; (* reverse definition order *)
  mutable next_id : int;
  mutable index_list : (string * string) list; (* (class, field), oldest first *)
  lineage_memo : (string, Schema.cls list) Hashtbl.t;
  layout_memo : (int, layout) Hashtbl.t; (* class id -> layout *)
  index_memo : (int, (int * string * int) list) Hashtbl.t; (* class id -> [class_indexes] *)
}

let create () =
  {
    by_name = Hashtbl.create 16;
    by_id = Hashtbl.create 16;
    order = [];
    next_id = 0;
    index_list = [];
    lineage_memo = Hashtbl.create 16;
    layout_memo = Hashtbl.create 16;
    index_memo = Hashtbl.create 16;
  }

let find t name = Hashtbl.find_opt t.by_name name

let find_exn t name =
  match Hashtbl.find t.by_name name with c -> c | exception Not_found -> schema_error "unknown class %s" name

let find_by_id t id = Hashtbl.find_opt t.by_id id
let all t = List.rev_map (fun n -> find_exn t n) t.order

(* Ancestors base-first, self last, each class once (diamonds collapse). *)
let lineage t (c : Schema.cls) =
  match Hashtbl.find_opt t.lineage_memo c.name with
  | Some l -> l
  | None ->
      let seen = Hashtbl.create 8 in
      let acc = ref [] in
      let rec visit (c : Schema.cls) =
        if not (Hashtbl.mem seen c.name) then begin
          Hashtbl.add seen c.name ();
          List.iter (fun p -> visit (find_exn t p)) c.parents;
          acc := c :: !acc
        end
      in
      visit c;
      let l = List.rev !acc in
      Hashtbl.add t.lineage_memo c.name l;
      l

let all_fields t c = List.concat_map (fun (a : Schema.cls) -> a.own_fields) (lineage t c)

(* Memoized like [lineage]. [define] and [decode] build every class's
   layout up front, so a read only ever looks it up. *)
let layout t (c : Schema.cls) =
  match Hashtbl.find t.layout_memo c.id with
  | l -> l
  | exception Not_found ->
      let fields = Array.of_list (all_fields t c) in
      let slots = Hashtbl.create (Array.length fields) in
      Array.iteri (fun i (f : Schema.field) -> Hashtbl.replace slots f.fname i) fields;
      let l = { fields; slots } in
      Hashtbl.replace t.layout_memo c.id l;
      l

let layout_of_id t id = Hashtbl.find_opt t.layout_memo id
let slot l name = Hashtbl.find_opt l.slots name

let all_constraints t c = List.concat_map (fun (a : Schema.cls) -> a.own_constraints) (lineage t c)

let find_method t c name =
  (* Most derived definition shadows: search the lineage from the back. *)
  let rec go = function
    | [] -> None
    | (a : Schema.cls) :: rest -> (
        match List.find_opt (fun (m : Schema.meth) -> m.mname = name) a.own_methods with
        | Some m -> Some m
        | None -> go rest)
  in
  go (List.rev (lineage t c))

let find_trigger t c name =
  let rec position i = function
    | [] -> None
    | (g : Schema.trigger) :: rest -> if g.gname = name then Some i else position (i + 1) rest
  in
  let rec go = function
    | [] -> None
    | (a : Schema.cls) :: rest -> (
        match position 0 a.own_triggers with
        | Some i -> Some (a, i, List.nth a.own_triggers i)
        | None -> go rest)
  in
  go (List.rev (lineage t c))

let is_subclass t ~sub ~super =
  match find t sub with
  | None -> false
  | Some c -> List.exists (fun (a : Schema.cls) -> a.name = super) (lineage t c)

let subclasses t name =
  List.filter (fun c -> is_subclass t ~sub:c ~super:name) (List.rev t.order)

(* -- definition ------------------------------------------------------------ *)

let check_field_types t (c : Schema.cls) =
  let rec refs = function
    | Otype.TRef cname -> [ cname ]
    | Otype.TSet u | Otype.TList u -> refs u
    | Otype.TInt | Otype.TFloat | Otype.TBool | Otype.TString -> []
  in
  List.iter
    (fun (f : Schema.field) ->
      List.iter
        (fun cname ->
          (* Self-reference is fine: linked structures (paper's btree example). *)
          if cname <> c.name && find t cname = None then
            schema_error "class %s: field %s references unknown class %s" c.name f.fname cname)
        (refs f.ftype))
    c.own_fields

let define t (d : Ast.class_decl) =
  if Hashtbl.mem t.by_name d.c_name then schema_error "class %s already defined" d.c_name;
  List.iter
    (fun p -> if not (Hashtbl.mem t.by_name p) then schema_error "unknown parent class %s" p)
    d.c_parents;
  let c = Schema.of_decl ~id:t.next_id d in
  check_field_types t c;
  (* Detect field-name clashes across the would-be lineage. *)
  Hashtbl.add t.by_name c.name c;
  (match
     let fields = all_fields t c in
     let names = Schema.field_names fields in
     let sorted = List.sort String.compare names in
     let rec dup = function
       | a :: b :: _ when a = b -> Some a
       | _ :: rest -> dup rest
       | [] -> None
     in
     dup sorted
   with
  | Some f ->
      Hashtbl.remove t.by_name c.name;
      Hashtbl.remove t.lineage_memo c.name;
      schema_error "class %s: ambiguous or duplicate field %s" c.name f
  | None -> ());
  Hashtbl.add t.by_id c.id c;
  ignore (layout t c);
  t.order <- c.name :: t.order;
  t.next_id <- t.next_id + 1;
  c

(* -- clusters and indexes ----------------------------------------------------- *)

let create_cluster t name =
  let c = find_exn t name in
  if c.cluster_created then schema_error "cluster %s already exists" name;
  c.cluster_created <- true

let has_cluster _t (c : Schema.cls) = c.cluster_created

let add_index t ~cls ~field =
  let c = find_exn t cls in
  let f =
    match Schema.find_field (all_fields t c) field with
    | Some f -> f
    | None -> schema_error "class %s has no field %s" cls field
  in
  if not (Otype.indexable f.ftype) then
    schema_error "field %s : %s is not indexable" field (Otype.to_string f.ftype);
  if List.mem (cls, field) t.index_list then schema_error "index on %s(%s) already exists" cls field;
  t.index_list <- t.index_list @ [ (cls, field) ];
  Hashtbl.reset t.index_memo

let indexes t = t.index_list

let class_indexes t (c : Schema.cls) =
  match Hashtbl.find t.index_memo c.id with
  | l -> l
  | exception Not_found ->
      let ancestors = List.map (fun (a : Schema.cls) -> a.name) (lineage t c) in
      let l = layout t c in
      let rec go i = function
        | [] -> []
        | (icls, field) :: rest ->
            let rest = go (i + 1) rest in
            if List.mem icls ancestors then
              match Hashtbl.find_opt l.slots field with Some s -> (i, field, s) :: rest | None -> rest
            else rest
      in
      let found = go 0 t.index_list in
      Hashtbl.replace t.index_memo c.id found;
      found

let indexes_on t name =
  match find t name with
  | None -> []
  | Some c ->
      let ancestors = List.map (fun (a : Schema.cls) -> a.name) (lineage t c) in
      List.filter_map
        (fun (cls, field) -> if List.mem cls ancestors then Some field else None)
        t.index_list

(* -- persistence ----------------------------------------------------------------- *)

(* The schema is stored as surface syntax plus per-class metadata; parsing it
   back through the real parser keeps exactly one source of truth for the
   class-declaration semantics. Nothing here changes when objects are
   created (the oid counters live in the engine's meta record), so only
   DDL rewrites it. *)

let encode t =
  let b = Buffer.create 1024 in
  let classes = all t in
  Codec.put_u32 b (List.length classes);
  List.iter
    (fun (c : Schema.cls) ->
      Codec.put_u32 b c.id;
      Codec.put_bool b c.cluster_created;
      Codec.put_string b (Ode_lang.Pp.class_to_string (Schema.to_decl c)))
    classes;
  Codec.put_u32 b t.next_id;
  Codec.put_u32 b (List.length t.index_list);
  List.iter
    (fun (cls, field) ->
      Codec.put_string b cls;
      Codec.put_string b field)
    t.index_list;
  Buffer.contents b

let decode s =
  let c = Codec.cursor s in
  let t = create () in
  let n = Codec.get_u32 c in
  for _ = 1 to n do
    let id = Codec.get_u32 c in
    let cluster_created = Codec.get_bool c in
    let src = Codec.get_string c in
    let decl =
      match Ode_lang.Parser.program src with
      | [ Ast.TClass d ] -> d
      | _ -> raise (Codec.Corrupt "catalog: stored class does not parse")
      | exception Ode_lang.Parser.Parse_error (msg, _) ->
          raise (Codec.Corrupt ("catalog: " ^ msg))
    in
    let cls = Schema.of_decl ~id decl in
    cls.cluster_created <- cluster_created;
    Hashtbl.add t.by_name cls.name cls;
    Hashtbl.add t.by_id cls.id cls;
    t.order <- cls.name :: t.order
  done;
  t.next_id <- Codec.get_u32 c;
  let ni = Codec.get_u32 c in
  for _ = 1 to ni do
    let cls = Codec.get_string c in
    let field = Codec.get_string c in
    t.index_list <- t.index_list @ [ (cls, field) ]
  done;
  Hashtbl.iter (fun _ c -> ignore (layout t c)) t.by_id;
  t
