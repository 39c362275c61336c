module Ast = Ode_lang.Ast

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type hooks = {
  get_field : Oid.t -> string -> Value.t option;
  get_field_v : Oid.vref -> string -> Value.t option;
  class_of : Oid.t -> string option;
  is_subclass : sub:string -> super:string -> bool;
  call_method : Value.t -> string -> Value.t list -> Value.t;
  builtin : string -> Value.t list -> Value.t option;
}

let null_hooks =
  {
    get_field = (fun _ _ -> error "no database attached");
    get_field_v = (fun _ _ -> error "no database attached");
    class_of = (fun _ -> None);
    is_subclass = (fun ~sub:_ ~super:_ -> false);
    call_method = (fun _ m _ -> error "unknown method %s" m);
    builtin = (fun _ _ -> None);
  }

let truthy : Value.t -> bool = function
  | Bool b -> b
  | Null -> false
  | v -> error "condition is not boolean: %a" Value.pp v

(* -- arithmetic ------------------------------------------------------------ *)

let arith op_name fi ff (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) ->
      let f = function Value.Int n -> float_of_int n | Value.Float f -> f | _ -> assert false in
      Float (ff (f a) (f b))
  | _ -> error "cannot apply %s to %a and %a" op_name Value.pp a Value.pp b

let add (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | Str x, Str y -> Str (x ^ y)
  | VList x, VList y -> VList (x @ y)
  | VSet _, VSet _ -> Value.set_union a b
  | _ -> arith "+" ( + ) ( +. ) a b

let sub (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | VSet _, VSet _ -> Value.set_diff a b
  | _ -> arith "-" ( - ) ( -. ) a b

let div (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | _, Int 0 -> error "division by zero"
  | _, Float 0.0 -> error "division by zero"
  | Int x, Int y -> Int (x / y)
  | _ -> arith "/" ( / ) ( /. ) a b

let modulo (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | Int _, Int 0 -> error "modulo by zero"
  | Int x, Int y -> Int (x mod y)
  | _ -> error "%% needs integers, got %a and %a" Value.pp a Value.pp b

let ordered op (a : Value.t) (b : Value.t) : Value.t =
  match (a, b) with
  | Null, _ | _, Null -> Bool false
  | (Int _ | Float _), (Int _ | Float _)
  | Str _, Str _
  | Bool _, Bool _ ->
      Bool (op (Value.compare a b) 0)
  | _ -> error "cannot order %a and %a" Value.pp a Value.pp b

(* -- builtins ----------------------------------------------------------------- *)

let size : Value.t -> Value.t = function
  | Str s -> Int (String.length s)
  | VList vs | VSet vs -> Int (List.length vs)
  | v -> error "size: not a string, set or list: %a" Value.pp v

let local_builtin name (args : Value.t list) : Value.t option =
  match (name, args) with
  | "abs", [ Int n ] -> Some (Int (abs n))
  | "abs", [ Float f ] -> Some (Float (Float.abs f))
  | "size", [ v ] -> Some (size v)
  | "min", [ a; b ] -> Some (if Value.compare a b <= 0 then a else b)
  | "max", [ a; b ] -> Some (if Value.compare a b >= 0 then a else b)
  | "int", [ Float f ] -> Some (Int (int_of_float f))
  | "int", [ Int n ] -> Some (Int n)
  | "float", [ Int n ] -> Some (Float (float_of_int n))
  | "float", [ Float f ] -> Some (Float f)
  | "str", [ v ] -> Some (Str (Value.to_string v))
  | ("abs" | "size" | "min" | "max" | "int" | "float" | "str"), _ ->
      error "builtin %s: wrong arguments" name
  | _ -> None

(* -- compilation ------------------------------------------------------------------ *)

type 'r binding = { slot : int; value : 'r -> Value.t; field : string -> 'r -> Value.t }

(* Every decision that does not depend on the row is taken once: constants
   are built, variables are found, and a field of a row variable is
   resolved by [binding.field] before the first row arrives. A variable is
   looked up among [rows] first, then [vars]. Errors are raised when the
   closure runs, never while compiling, so an expression that is never
   reached cannot fail. *)
let const (v : Value.t) _ = v
let fail fmt = Format.kasprintf (fun s _ -> raise (Error s)) fmt

let compile hooks ~rows ~vars ~this e =
  let rec go (e : Ast.expr) : 'r array -> Value.t =
    match e with
    | Null -> const Value.Null
    | Int n -> const (Int n)
    | Float f -> const (Float f)
    | Bool b -> const (Bool b)
    | Str s -> const (Str s)
    | This -> ( match this with Some v -> const v | None -> fail "no 'this' in scope")
    | Var x -> (
        match List.assoc_opt x rows with
        | Some b -> fun fr -> b.value fr.(b.slot)
        | None -> (
            match List.assoc_opt x vars with
            | Some v -> const v
            | None -> fail "unbound variable %s" x))
    | Field (Var x, f) when List.mem_assoc x rows ->
        let b = List.assoc x rows in
        let read = b.field f in
        fun fr -> read fr.(b.slot)
    | Field (e, f) -> (
        let e = go e in
        fun fr ->
          match e fr with
          | Null -> Null
          | Ref oid -> (
              match hooks.get_field oid f with
              | Some v -> v
              | None -> error "object %a has no field %s" Oid.pp oid f)
          | Vref vr -> (
              match hooks.get_field_v vr f with
              | Some v -> v
              | None -> error "version %a has no field %s" Oid.pp_vref vr f)
          | v -> error "cannot access field %s of %a" f Value.pp v)
    | Unop (Neg, e) -> (
        let e = go e in
        fun fr ->
          match e fr with
          | Int n -> Int (-n)
          | Float f -> Float (-.f)
          | Null -> Null
          | v -> error "cannot negate %a" Value.pp v)
    | Unop (Not, e) ->
        let e = go e in
        fun fr -> Bool (not (truthy (e fr)))
    | Binop (op, a, b) -> (
        let a = go a and b = go b in
        match op with
        | And -> fun fr -> Bool (truthy (a fr) && truthy (b fr))
        | Or -> fun fr -> Bool (truthy (a fr) || truthy (b fr))
        | Eq -> fun fr -> Bool (Value.equal (a fr) (b fr))
        | Ne -> fun fr -> Bool (not (Value.equal (a fr) (b fr)))
        | Lt -> fun fr -> ordered ( < ) (a fr) (b fr)
        | Le -> fun fr -> ordered ( <= ) (a fr) (b fr)
        | Gt -> fun fr -> ordered ( > ) (a fr) (b fr)
        | Ge -> fun fr -> ordered ( >= ) (a fr) (b fr)
        | Add -> fun fr -> add (a fr) (b fr)
        | Sub -> fun fr -> sub (a fr) (b fr)
        | Mul -> fun fr -> arith "*" ( * ) ( *. ) (a fr) (b fr)
        | Div -> fun fr -> div (a fr) (b fr)
        | Mod -> fun fr -> modulo (a fr) (b fr)
        | In -> (
            fun fr ->
              let x = a fr in
              match b fr with
              | VSet vs | VList vs -> Bool (List.exists (Value.equal x) vs)
              | v -> error "'in' needs a set or list, got %a" Value.pp v))
    | Is (e, cls) -> (
        let e = go e in
        fun fr ->
          match e fr with
          | Ref oid | Vref { oid; _ } -> (
              match hooks.class_of oid with
              | Some name -> Bool (hooks.is_subclass ~sub:name ~super:cls)
              | None -> Bool false)
          | Null -> Bool false
          | v -> error "'is' needs an object reference, got %a" Value.pp v)
    | SetLit es ->
        let es = List.map go es in
        fun fr -> Value.set_of_list (List.map (fun e -> e fr) es)
    | ListLit es ->
        let es = List.map go es in
        fun fr -> VList (List.map (fun e -> e fr) es)
    | Call (None, name, args) -> (
        let args = List.map go args in
        fun fr ->
          let vals = List.map (fun e -> e fr) args in
          match local_builtin name vals with
          | Some v -> v
          | None -> (
              match hooks.builtin name vals with
              | Some v -> v
              | None -> error "unknown function %s" name))
    | Call (Some recv, name, args) ->
        let recv = go recv and args = List.map go args in
        fun fr ->
          let r = recv fr in
          let vals = List.map (fun e -> e fr) args in
          hooks.call_method r name vals
  in
  go e

(* One evaluation is a compilation with no row variable, applied once. *)
let eval hooks ~vars ~this e = compile hooks ~rows:[] ~vars ~this e [||]
