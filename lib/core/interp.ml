module Ast = Ode_lang.Ast
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
open Types

type env = {
  mutable vars : (string * Value.t) list;
  mutable rows : Store.row list;  (* the current rows of the loops in scope *)
  print : string -> unit;
  this : Value.t option;
}

let env ?(print = print_string) ?this () = { vars = []; rows = []; print; this }

let define_var e name v = e.vars <- (name, v) :: List.remove_assoc name e.vars
let undefine_var e name = e.vars <- List.remove_assoc name e.vars
let lookup_var e name = List.assoc_opt name e.vars
let all_vars e = e.vars

exception Returned of Value.t

let err fmt = Format.kasprintf (fun s -> raise (Eval.Error s)) fmt

let eval_expr txn env e =
  Runtime.eval ~rows:env.rows txn.tdb (Some txn) ~vars:env.vars ?this:env.this e

let as_oid what (v : Value.t) =
  match v with
  | Ref oid -> oid
  | v -> err "%s expects an object, got %a" what Value.pp v

let rec exec_stmt txn env (s : Ast.stmt) =
  let db = txn.tdb in
  let ev e = eval_expr txn env e in
  match s with
  | SExpr (Call (None, "setroot", [ name_e; val_e ])) -> (
      (* Named persistent roots, writable from scripts (used by dumps). *)
      match ev name_e with
      | Value.Str name ->
          let buf = Buffer.create 16 in
          Value.encode buf (ev val_e);
          Store.write txn (Keys.root name) (Buffer.contents buf)
      | v -> err "setroot expects a string name, got %a" Value.pp v)
  | SExpr e -> ignore (ev e)
  | SPrint es ->
      let parts =
        List.map
          (fun e -> match ev e with Value.Str s -> s | v -> Value.to_string v)
          es
      in
      env.print (String.concat " " parts ^ "\n")
  | SAssign (x, e) -> define_var env x (ev e)
  | SSetField (o, f, e) ->
      let oid = as_oid "field update" (ev o) in
      Store.update_fields txn oid [ (f, ev e) ]
  | SNew (tgt, cname, inits) ->
      let cls = Catalog.find_exn db.catalog cname in
      let values = List.map (fun (f, e) -> (f, ev e)) inits in
      let oid = Store.create txn cls values in
      (match tgt with Some x -> define_var env x (Value.Ref oid) | None -> ())
  | SDelete e -> Store.delete_object txn (as_oid "pdelete" (ev e))
  | SForall q -> with_forall txn env q (Query.execute db ~txn)
  | SIf (c, then_, else_) ->
      if Eval.truthy (ev c) then exec_stmts txn env then_ else exec_stmts txn env else_
  | SNewVersion e -> ignore (Store.new_version txn (as_oid "newversion" (ev e)))
  | SActivate (tgt, recv, name, args) ->
      let oid = as_oid "activate" (ev recv) in
      let tid = Triggers.activate txn oid name (List.map ev args) in
      (match tgt with Some x -> define_var env x (Value.Int tid) | None -> ())
  | SDeactivate e -> (
      match ev e with
      | Value.Int tid -> Triggers.deactivate txn tid
      | v -> err "deactivate expects a trigger id, got %a" Value.pp v)
  | SInsert (e, f, obj) ->
      let oid = as_oid "insert into" (ev obj) in
      let v = ev e in
      (match Store.get_field db (Some txn) oid f with
      | Some (Value.VSet _ as s) -> Store.update_fields txn oid [ (f, Value.set_add v s) ]
      | Some (Value.VList vs) -> Store.update_fields txn oid [ (f, Value.VList (vs @ [ v ])) ]
      | Some other -> err "insert into %s: not a set or list (%a)" f Value.pp other
      | None -> err "insert into: no field %s" f)
  | SRemove (e, f, obj) ->
      let oid = as_oid "remove from" (ev obj) in
      let v = ev e in
      (match Store.get_field db (Some txn) oid f with
      | Some (Value.VSet _ as s) -> Store.update_fields txn oid [ (f, Value.set_remove v s) ]
      | Some (Value.VList vs) ->
          Store.update_fields txn oid
            [ (f, Value.VList (List.filter (fun x -> not (Value.equal x v)) vs)) ]
      | Some other -> err "remove from %s: not a set or list (%a)" f Value.pp other
      | None -> err "remove from: no field %s" f)
  | SReturn e -> raise (Returned (ev e))

and exec_stmts txn env ss = List.iter (exec_stmt txn env) ss

(* Compile [q] — a two-extent nested loop the planner may fuse becomes one
   join — and hand [run] the tree with a body that binds each row's loop
   variables and executes the loop's statements. Loop variables are
   scoped to the loop (shadowing outer bindings of the same names); all
   other assignments made by the body persist, so accumulator loops like
   [total := total + x.age] work. The body reads the fields of a row's
   object from the record the executor fetched. *)
and with_forall :
      'a. txn -> env -> Ast.forall -> (Planner.compiled -> (Store.row list -> unit) -> 'a) -> 'a =
 fun txn env q run ->
  let c = Planner.compile txn.tdb ~txn ~env:env.vars q in
  let saved = List.map (fun v -> (v, lookup_var env v)) c.c_vars in
  let outer_rows = env.rows in
  let body row =
    List.iter2 (fun v (r : Store.row) -> define_var env v (Value.Ref r.oid)) c.c_vars row;
    env.rows <- row @ outer_rows;
    exec_stmts txn env c.c_body
  in
  Fun.protect
    (fun () -> run c body)
    ~finally:(fun () ->
      env.rows <- outer_rows;
      List.iter
        (fun (v, outer) ->
          undefine_var env v;
          Option.iter (define_var env v) outer)
        (List.rev saved))

let profile_forall txn env q = with_forall txn env q (Query.execute_profiled txn.tdb ~txn)
