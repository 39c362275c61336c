type t =
  | TInt
  | TFloat
  | TBool
  | TString
  | TRef of string
  | TSet of t
  | TList of t

let rec equal a b =
  match (a, b) with
  | TInt, TInt | TFloat, TFloat | TBool, TBool | TString, TString -> true
  | TRef x, TRef y -> String.equal x y
  | TSet x, TSet y | TList x, TList y -> equal x y
  | _ -> false

let rec pp ppf = function
  | TInt -> Fmt.string ppf "int"
  | TFloat -> Fmt.string ppf "float"
  | TBool -> Fmt.string ppf "bool"
  | TString -> Fmt.string ppf "string"
  | TRef c -> Fmt.pf ppf "ref %s" c
  | TSet t -> Fmt.pf ppf "set<%a>" pp t
  | TList t -> Fmt.pf ppf "list<%a>" pp t

let to_string t = Fmt.str "%a" pp t

let rec of_ast : Ode_lang.Ast.type_expr -> t = function
  | TyInt -> TInt
  | TyFloat -> TFloat
  | TyBool -> TBool
  | TyString -> TString
  | TyRef c -> TRef c
  | TySet t -> TSet (of_ast t)
  | TyList t -> TList (of_ast t)

let rec to_ast : t -> Ode_lang.Ast.type_expr = function
  | TInt -> TyInt
  | TFloat -> TyFloat
  | TBool -> TyBool
  | TString -> TyString
  | TRef c -> TyRef c
  | TSet t -> TySet (to_ast t)
  | TList t -> TyList (to_ast t)

let default_value = function
  | TInt -> Value.Int 0
  | TFloat -> Value.Float 0.0
  | TBool -> Value.Bool false
  | TString -> Value.Str ""
  | TRef _ -> Value.Null
  | TSet _ -> Value.VSet []
  | TList _ -> Value.VList []

let conforms ?subclass t v ~class_of =
  let sub ~sub:s ~super =
    match subclass with Some f -> f ~sub:s ~super | None -> String.equal s super
  in
  let rec go t (v : Value.t) =
    match (t, v) with
    | TInt, Int _ -> true
    | TFloat, (Float _ | Int _) -> true
    | TBool, Bool _ -> true
    | TString, Str _ -> true
    | TRef _, Null -> true
    | TRef c, Ref o when o.Oid.num >= 0 -> (
        match class_of o with Some name -> sub ~sub:name ~super:c | None -> false)
    | TRef c, Vref vr when vr.Oid.oid.num >= 0 && vr.ver >= 0 -> (
        match class_of vr.Oid.oid with Some name -> sub ~sub:name ~super:c | None -> false)
    | TSet t', VSet vs | TList t', VList vs -> List.for_all (go t') vs
    | _ -> false
  in
  go t v

let indexable = function
  | TInt | TFloat | TBool | TString | TRef _ -> true
  | TSet _ | TList _ -> false
