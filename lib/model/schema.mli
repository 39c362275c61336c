(** Class descriptors.

    A class has data members (fields), member functions (expression-bodied
    methods), constraints and trigger declarations, and may inherit from
    several parents (paper §2: "Classes support data encapsulation and
    multiple inheritance"). Resolution across the hierarchy lives in
    {!Catalog}; this module is the per-class record and its conversions to
    and from surface syntax. *)

type field = {
  fname : string;
  ftype : Otype.t;
  fdefault : Ode_lang.Ast.expr option;
      (** member initializer, evaluated at [pnew] when the field is not
          explicitly set *)
}

type meth = {
  mname : string;
  mparams : field list;
  mret : Otype.t;
  mbody : Ode_lang.Ast.expr;
}

type constr = { kname : string; kexpr : Ode_lang.Ast.expr }

type trigger = {
  gname : string;
  gparams : field list;
  gperpetual : bool;
  gwithin : Ode_lang.Ast.expr option;
  gcond : Ode_lang.Ast.expr;
  gaction : Ode_lang.Ast.stmt list;
  gtimeout : Ode_lang.Ast.stmt list;
}

type cls = {
  id : int;                      (** catalog class id, stable for the db's life *)
  name : string;
  parents : string list;
  own_fields : field list;
  own_methods : meth list;
  own_constraints : constr list;
  own_triggers : trigger list;
  mutable cluster_created : bool;  (** paper §2.5: clusters are created explicitly *)
}

val of_decl : id:int -> Ode_lang.Ast.class_decl -> cls
val to_decl : cls -> Ode_lang.Ast.class_decl

val field_names : field list -> string list
val find_field : field list -> string -> field option
