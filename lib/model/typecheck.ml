module Ast = Ode_lang.Ast

let err fmt = Ode_util.Ode_error.user ("type error: " ^^ fmt)

type ty = Known of Otype.t | Dyn

let pp_ty ppf = function
  | Known t -> Otype.pp ppf t
  | Dyn -> Fmt.string ppf "<dynamic>"

type env = {
  catalog : Catalog.t;
  vars : (string * ty) list;
  this_class : Schema.cls option;
}

let numeric = function Known (Otype.TInt | Otype.TFloat) | Dyn -> true | _ -> false

let join a b =
  (* Least upper bound for arithmetic results. *)
  match (a, b) with
  | Known Otype.TInt, Known Otype.TInt -> Known Otype.TInt
  | (Known Otype.TFloat | Known Otype.TInt), (Known Otype.TFloat | Known Otype.TInt) ->
      Known Otype.TFloat
  | Dyn, _ | _, Dyn -> Dyn
  | _ -> err "incompatible numeric operands"

let field_type env cls_name fname =
  match Catalog.find env.catalog cls_name with
  | None -> err "unknown class %s" cls_name
  | Some c -> (
      match Schema.find_field (Catalog.all_fields env.catalog c) fname with
      | Some f -> Known f.ftype
      | None -> err "class %s has no field %s" cls_name fname)

let rec infer env (e : Ast.expr) : ty =
  match e with
  | Null -> Dyn
  | Int _ -> Known Otype.TInt
  | Float _ -> Known Otype.TFloat
  | Bool _ -> Known Otype.TBool
  | Str _ -> Known Otype.TString
  | This -> (
      match env.this_class with
      | Some c -> Known (Otype.TRef c.name)
      | None -> err "'this' used outside a class")
  | Var x -> (
      match List.assoc_opt x env.vars with
      | Some t -> t
      | None -> err "unbound variable %s" x)
  | Field (b, f) -> (
      match infer env b with
      | Known (Otype.TRef cls) -> field_type env cls f
      | Dyn -> Dyn
      | t -> err "cannot access field %s of a %a" f pp_ty t)
  | Unop (Neg, e) ->
      let t = infer env e in
      if numeric t then t else err "cannot negate a %a" pp_ty t
  | Unop (Not, e) ->
      check_bool_ty env e;
      Known Otype.TBool
  | Binop ((And | Or), a, b) ->
      check_bool_ty env a;
      check_bool_ty env b;
      Known Otype.TBool
  | Binop ((Eq | Ne), _, _) -> Known Otype.TBool
  | Binop ((Lt | Le | Gt | Ge), a, b) ->
      let ta = infer env a and tb = infer env b in
      let orderable = function
        | Dyn | Known (Otype.TInt | Otype.TFloat | Otype.TString | Otype.TBool) -> true
        | _ -> false
      in
      if orderable ta && orderable tb then Known Otype.TBool
      else err "cannot order %a and %a" pp_ty ta pp_ty tb
  | Binop (Add, a, b) -> (
      let ta = infer env a and tb = infer env b in
      match (ta, tb) with
      | Known Otype.TString, Known Otype.TString -> Known Otype.TString
      | Known (Otype.TSet _), Known (Otype.TSet _) | Known (Otype.TList _), Known (Otype.TList _) ->
          ta
      | _ when numeric ta && numeric tb -> join ta tb
      | Dyn, _ | _, Dyn -> Dyn
      | _ -> err "cannot add %a and %a" pp_ty ta pp_ty tb)
  | Binop (Sub, a, b) -> (
      let ta = infer env a and tb = infer env b in
      match (ta, tb) with
      | Known (Otype.TSet _), Known (Otype.TSet _) -> ta
      | _ when numeric ta && numeric tb -> join ta tb
      | Dyn, _ | _, Dyn -> Dyn
      | _ -> err "cannot subtract %a from %a" pp_ty tb pp_ty ta)
  | Binop ((Mul | Div), a, b) ->
      let ta = infer env a and tb = infer env b in
      if numeric ta && numeric tb then join ta tb
      else err "arithmetic on %a and %a" pp_ty ta pp_ty tb
  | Binop (Mod, a, b) -> (
      let ta = infer env a and tb = infer env b in
      match (ta, tb) with
      | (Known Otype.TInt | Dyn), (Known Otype.TInt | Dyn) -> Known Otype.TInt
      | _ -> err "%% needs integers")
  | Binop (In, a, b) -> (
      let _ = infer env a in
      match infer env b with
      | Known (Otype.TSet _) | Known (Otype.TList _) | Dyn -> Known Otype.TBool
      | t -> err "'in' needs a set or list, got %a" pp_ty t)
  | Is (e, cls) ->
      (match Catalog.find env.catalog cls with
      | None -> err "unknown class %s in 'is'" cls
      | Some _ -> ());
      let _ = infer env e in
      Known Otype.TBool
  | SetLit es ->
      List.iter (fun e -> ignore (infer env e)) es;
      Dyn
  | ListLit es ->
      List.iter (fun e -> ignore (infer env e)) es;
      Dyn
  | Call (None, name, args) -> (
      let ts = List.map (infer env) args in
      match (name, ts) with
      | "size", [ _ ] -> Known Otype.TInt
      | "abs", [ t ] when numeric t -> t
      | ("min" | "max"), [ a; _ ] -> a
      | "int", [ _ ] -> Known Otype.TInt
      | "float", [ _ ] -> Known Otype.TFloat
      | "str", [ _ ] -> Known Otype.TString
      | ("size" | "abs" | "min" | "max" | "int" | "float" | "str"), _ ->
          err "builtin %s: wrong number of arguments" name
      | _ -> Dyn (* database-layer builtins (version navigation, ...) *))
  | Call (Some recv, name, args) -> (
      match infer env recv with
      | Known (Otype.TRef cls) -> (
          match Catalog.find env.catalog cls with
          | None -> err "unknown class %s" cls
          | Some c -> (
              match Catalog.find_method env.catalog c name with
              | None -> err "class %s has no method %s" cls name
              | Some m ->
                  if List.length args <> List.length m.mparams then
                    err "method %s.%s expects %d arguments" cls name (List.length m.mparams);
                  List.iter (fun a -> ignore (infer env a)) args;
                  Known m.mret))
      | Dyn ->
          List.iter (fun a -> ignore (infer env a)) args;
          Dyn
      | t -> err "cannot call method %s on a %a" name pp_ty t)

and check_bool_ty env e =
  match infer env e with
  | Known Otype.TBool | Dyn -> ()
  | t -> err "expected a boolean, got %a" pp_ty t

let check_bool env e ~what =
  match infer env e with
  | Known Otype.TBool | Dyn -> ()
  | t -> err "%s must be boolean, got %a" what pp_ty t

let check_class catalog (c : Schema.cls) =
  let base = { catalog; vars = []; this_class = Some c } in
  (* Member initializers are closed expressions of the field's type. *)
  List.iter
    (fun (f : Schema.field) ->
      match f.fdefault with
      | None -> ()
      | Some e -> (
          let t = infer { catalog; vars = []; this_class = None } e in
          match (t, f.ftype) with
          | Dyn, _ -> ()
          | Known got, want when Otype.equal got want -> ()
          | Known Otype.TInt, Otype.TFloat -> ()
          | Known got, want ->
              err "field %s.%s: default has type %s, field is %s" c.name f.fname
                (Otype.to_string got) (Otype.to_string want)))
    c.own_fields;
  (* Constraints and trigger conditions see the object's fields as bare
     identifiers too ("qty >= 0" means "this.qty >= 0"). The rewrite to
     [this.f] happens at definition time in the database layer; here they
     arrive already rewritten, so plain checking suffices. *)
  List.iter
    (fun (k : Schema.constr) -> check_bool base k.kexpr ~what:(Printf.sprintf "constraint %s" k.kname))
    c.own_constraints;
  List.iter
    (fun (m : Schema.meth) ->
      let vars = List.map (fun (p : Schema.field) -> (p.fname, Known p.ftype)) m.mparams in
      let t = infer { base with vars } m.mbody in
      match t with
      | Dyn -> ()
      | Known got ->
          let compatible =
            Otype.equal got m.mret
            || match (got, m.mret) with Otype.TInt, Otype.TFloat -> true | _ -> false
          in
          if not compatible then
            err "method %s.%s: body has type %s, declared %s" c.name m.mname
              (Otype.to_string got) (Otype.to_string m.mret))
    c.own_methods;
  List.iter
    (fun (g : Schema.trigger) ->
      let vars = List.map (fun (p : Schema.field) -> (p.fname, Known p.ftype)) g.gparams in
      let env = { base with vars } in
      check_bool env g.gcond ~what:(Printf.sprintf "trigger %s condition" g.gname);
      match g.gwithin with
      | Some e -> (
          match infer env e with
          | Known Otype.TInt | Dyn -> ()
          | t -> err "trigger %s: 'within' must be an int, got %a" g.gname pp_ty t)
      | None -> ())
    c.own_triggers
