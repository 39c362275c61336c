module Ast = Ode_lang.Ast

type field = { fname : string; ftype : Otype.t; fdefault : Ast.expr option }

type meth = {
  mname : string;
  mparams : field list;
  mret : Otype.t;
  mbody : Ast.expr;
}

type constr = { kname : string; kexpr : Ast.expr }

type trigger = {
  gname : string;
  gparams : field list;
  gperpetual : bool;
  gwithin : Ast.expr option;
  gcond : Ast.expr;
  gaction : Ast.stmt list;
  gtimeout : Ast.stmt list;
}

type cls = {
  id : int;
  name : string;
  parents : string list;
  own_fields : field list;
  own_methods : meth list;
  own_constraints : constr list;
  own_triggers : trigger list;
  mutable cluster_created : bool;
}

let field_of_decl (f : Ast.field_decl) =
  { fname = f.fd_name; ftype = Otype.of_ast f.fd_type; fdefault = f.fd_default }

let field_to_decl f : Ast.field_decl =
  { fd_name = f.fname; fd_type = Otype.to_ast f.ftype; fd_default = f.fdefault }

let of_decl ~id (d : Ast.class_decl) =
  {
    id;
    name = d.c_name;
    parents = d.c_parents;
    own_fields = List.map field_of_decl d.c_fields;
    own_methods =
      List.map
        (fun (m : Ast.method_decl) ->
          {
            mname = m.m_name;
            mparams = List.map field_of_decl m.m_params;
            mret = Otype.of_ast m.m_ret;
            mbody = m.m_body;
          })
        d.c_methods;
    own_constraints =
      List.map (fun (k : Ast.constraint_decl) -> { kname = k.k_name; kexpr = k.k_expr }) d.c_constraints;
    own_triggers =
      List.map
        (fun (g : Ast.trigger_decl) ->
          {
            gname = g.g_name;
            gparams = List.map field_of_decl g.g_params;
            gperpetual = g.g_perpetual;
            gwithin = g.g_within;
            gcond = g.g_cond;
            gaction = g.g_action;
            gtimeout = g.g_timeout;
          })
        d.c_triggers;
    cluster_created = false;
  }

let to_decl c : Ast.class_decl =
  {
    c_name = c.name;
    c_parents = c.parents;
    c_fields = List.map field_to_decl c.own_fields;
    c_methods =
      List.map
        (fun m ->
          Ast.
            {
              m_name = m.mname;
              m_params = List.map field_to_decl m.mparams;
              m_ret = Otype.to_ast m.mret;
              m_body = m.mbody;
            })
        c.own_methods;
    c_constraints = List.map (fun k -> Ast.{ k_name = k.kname; k_expr = k.kexpr }) c.own_constraints;
    c_triggers =
      List.map
        (fun g ->
          Ast.
            {
              g_name = g.gname;
              g_params = List.map field_to_decl g.gparams;
              g_perpetual = g.gperpetual;
              g_within = g.gwithin;
              g_cond = g.gcond;
              g_action = g.gaction;
              g_timeout = g.gtimeout;
            })
        c.own_triggers;
  }

let field_names fs = List.map (fun f -> f.fname) fs
let find_field fs name = List.find_opt (fun f -> f.fname = name) fs
