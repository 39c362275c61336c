(* Evaluation hooks binding the expression evaluator to the database: field
   access through the active transaction, dynamic class tests, version
   navigation builtins and method dispatch on the receiver's runtime class
   (most-derived definition wins, like C++ virtual functions). *)

module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
open Types

let err fmt = Format.kasprintf (fun s -> raise (Eval.Error s)) fmt

(* Add the key [mk x] to [reads], when given: the records an evaluation
   reads, which a commit checks for conflicts beside its writes. A
   version's record only changes with its object's header, so the header
   key stands for both. *)
let note reads mk x = match reads with Some r -> Hashtbl.replace r (mk x) () | None -> ()

let version_builtin ?reads db txn name (args : Value.t list) : Value.t option =
  let header oid =
    note reads Keys.header oid;
    match Store.get_header db txn oid with
    | Some h -> h
    | None -> err "no such object %a" Oid.pp oid
  in
  (* Versions ordered by creation; navigation follows that order (linear
     versioning, paper §4). *)
  let sorted oid = List.sort Int.compare (header oid).Store.hversions in
  match (name, args) with
  | "vref", [ Ref oid; Int k ] ->
      if List.mem k (header oid).Store.hversions then Some (Value.Vref { oid; ver = k })
      else Some Value.Null
  | "vnum", [ Vref vr ] -> Some (Value.Int vr.ver)
  | "vnum", [ Ref oid ] -> Some (Value.Int (header oid).Store.hcurrent)
  | "nversions", [ Ref oid ] -> Some (Value.Int (List.length (header oid).Store.hversions))
  | "current", [ Vref vr ] -> Some (Value.Ref vr.oid)
  | "current", [ Ref oid ] -> Some (Value.Ref oid)
  | "vprev", [ v ] -> (
      let oid, ver =
        match v with
        | Value.Vref vr -> (vr.oid, vr.ver)
        | Value.Ref oid -> (oid, (header oid).Store.hcurrent)
        | v -> err "vprev: expected an object, got %a" Value.pp v
      in
      match List.rev (List.filter (fun x -> x < ver) (sorted oid)) with
      | prev :: _ -> Some (Value.Vref { oid; ver = prev })
      | [] -> Some Value.Null)
  | "vnext", [ Vref vr ] -> (
      match List.filter (fun x -> x > vr.ver) (sorted vr.oid) with
      | next :: _ -> Some (Value.Vref { oid = vr.oid; ver = next })
      | [] -> Some Value.Null)
  | "now", [] -> Some (Value.Int db.meta.clock)
  | "getroot", [ Str name ] -> (
      note reads Keys.root name;
      match Store.read db txn (Keys.root name) with
      | Some s -> Some (Value.decode (Ode_util.Codec.cursor s))
      | None -> Some Value.Null)
  | ("vref" | "vnum" | "nversions" | "current" | "vprev" | "vnext" | "now" | "getroot"), _ ->
      err "builtin %s: wrong arguments" name
  | _ -> None

(* How deeply method calls may nest. A method that calls itself without
   end would otherwise run until memory gives out, and on a server it
   would hold the one serving domain all that time. *)
let max_call_depth = 10_000

(* A field of one of [rows], the records of the loop variables in scope,
   is read from that record while the transaction has not written since
   fetching it; any other goes to the store. [depth] counts the method
   calls the evaluation is nested in. *)
let rec hooks_at ?reads ~rows ~depth db txn : Eval.hooks =
  {
    get_field =
      (fun oid f ->
        note reads Keys.header oid;
        match List.find_opt (fun (r : Store.row) -> Oid.equal r.oid oid) rows with
        | Some r when Store.current txn r -> Store.row_field db r f
        | _ -> Store.get_field db txn oid f);
    get_field_v =
      (fun vr f ->
        note reads Keys.header vr.oid;
        Store.get_field_v db txn vr f);
    class_of =
      (fun oid ->
        note reads Keys.header oid;
        if Store.exists db txn oid then
          Option.map (fun (c : Schema.cls) -> c.Schema.name) (Store.class_of db oid)
        else None);
    is_subclass = (fun ~sub ~super -> Catalog.is_subclass db.catalog ~sub ~super);
    call_method = (fun recv name args -> call_at ?reads ~depth db txn recv name args);
    builtin = (fun name args -> version_builtin ?reads db txn name args);
  }

and call_at ?reads ~depth db txn (recv : Value.t) name args : Value.t =
  let oid =
    match recv with
    | Ref oid -> oid
    | Vref vr -> vr.Oid.oid
    | v -> err "cannot call method %s on %a" name Value.pp v
  in
  let cls =
    match Store.class_of db oid with
    | Some c -> c
    | None -> err "object %a has unknown class" Oid.pp oid
  in
  match Catalog.find_method db.catalog cls name with
  | None -> err "class %s has no method %s" cls.Schema.name name
  | Some m ->
      if List.length args <> List.length m.mparams then
        err "method %s.%s expects %d arguments, got %d" cls.Schema.name name
          (List.length m.mparams) (List.length args);
      if depth >= max_call_depth then
        Ode_util.Ode_error.user "method %s.%s: calls nested deeper than %d" cls.Schema.name name
          max_call_depth;
      let vars = List.map2 (fun (p : Schema.field) v -> (p.fname, v)) m.mparams args in
      Eval.eval (hooks_at ?reads ~rows:[] ~depth:(depth + 1) db txn) ~vars ~this:(Some recv) m.mbody

let hooks ?reads ?(rows = []) db txn = hooks_at ?reads ~rows ~depth:0 db txn
let call_method ?reads db txn recv name args = call_at ?reads ~depth:0 db txn recv name args

let eval ?reads ?rows db txn ?(vars = []) ?this e = Eval.eval (hooks ?reads ?rows db txn) ~vars ~this e
