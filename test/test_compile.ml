(* Compiled row reads against the store's: [Eval.compile] with [p] bound
   to a row fetched from the store, its fields read from the row's record
   by [Store.field_reader], must give exactly what [Eval.eval] gives with
   [p] bound to the object's reference, its fields read through the
   store's hooks, errors included, over seeded random expressions and
   objects. The schema has a diamond, so a field inherited through two
   parents sits at different slots in the classes below it; objects
   include null refs and ints stored in float fields, and the transaction
   creates, rewrites and deletes objects after some rows were fetched, so
   a stale row must be read through its overlay. *)

module Ast = Ode_lang.Ast
module Db = Ode.Database
module Store = Ode.Store
module Value = Ode_model.Value
module Eval = Ode_model.Eval
module Prng = Ode_util.Prng

let schema =
  {|class base { id: int; tag: string; w: float; };
    class left : base { l: int; s: set<int>; };
    class right : base { r: ref base; ok: bool; };
    class bottom : right, left { b: int; };|}

let classes = [| "base"; "left"; "right"; "bottom" |]
let fields = [| "id"; "tag"; "w"; "l"; "s"; "r"; "ok"; "b"; "nope" |]

let small rng = Prng.int rng 7 - 3
let str rng = Prng.pick rng [| ""; "a"; "b"; "ab" |]

(* Values for the fields [cls] has, refs drawn from [pool]. *)
let inits rng pool cls =
  let own =
    match cls with
    | "left" -> [ "l"; "s" ]
    | "right" -> [ "r"; "ok" ]
    | "bottom" -> [ "r"; "ok"; "l"; "s"; "b" ]
    | _ -> []
  in
  let value = function
    | "id" | "l" | "b" -> Value.Int (small rng)
    | "tag" -> Value.Str (str rng)
    | "w" -> if Prng.bool rng then Value.Float (float (small rng) /. 2.) else Value.Int (small rng)
    | "s" -> Value.set_of_list (List.init (Prng.int rng 3) (fun _ -> Value.Int (small rng)))
    | "ok" -> Value.Bool (Prng.bool rng)
    | _ -> (
        match pool with
        | [] -> Value.Null
        | _ when Prng.int rng 3 = 0 -> Value.Null
        | _ -> Value.Ref (Prng.pick rng (Array.of_list pool)))
  in
  List.map (fun f -> (f, value f)) ([ "id"; "tag"; "w" ] @ own)

let rec expr rng depth : Ast.expr =
  let leaf () : Ast.expr =
    match Prng.int rng 9 with
    | 0 -> Int (small rng)
    | 1 -> Float (float (small rng) /. 2.)
    | 2 -> Str (str rng)
    | 3 -> Null
    | 4 -> Bool (Prng.bool rng)
    | 5 -> Var (Prng.pick rng [| "p"; "k"; "unbound" |])
    | 6 -> Field (Field (Var "p", "r"), Prng.pick rng fields)
    | _ -> Field (Var "p", Prng.pick rng fields)
  in
  if depth = 0 then leaf ()
  else
    let sub () = expr rng (depth - 1) in
    match Prng.int rng 12 with
    | 0 | 1 | 2 -> leaf ()
    | 3 -> Unop (Prng.pick rng [| Ast.Not; Ast.Neg |], sub ())
    | 4 -> Is (Prng.pick rng [| Ast.Var "p"; Ast.Field (Var "p", "r"); sub () |], Prng.pick rng classes)
    | 5 -> SetLit (List.init (Prng.int rng 3) (fun _ -> sub ()))
    | 6 -> Call (None, Prng.pick rng [| "abs"; "size"; "str"; "vnum"; "nosuch" |], [ sub () ])
    | _ ->
        Binop
          ( Prng.pick rng
              Ast.[| Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or; In |],
            sub (),
            sub () )

type outcome = Value of Value.t | Failed

let outcome f = match f () with v -> Value v | exception Eval.Error _ -> Failed

let same a b =
  match (a, b) with Value x, Value y -> Value.equal x y | Failed, Failed -> true | _ -> false

let show = function Value v -> Value.to_string v | Failed -> "error"

let differential seed () =
  let rng = Prng.create seed in
  let db = Db.open_in_memory () in
  ignore (Db.define db schema);
  Array.iter (Db.create_cluster db) classes;
  let committed =
    Db.with_txn db (fun txn ->
        List.fold_left
          (fun pool i ->
            let cls = classes.(i mod 4) in
            Db.pnew txn cls (inits rng pool cls) :: pool)
          [] (List.init 24 Fun.id))
  in
  let env = [ ("k", Value.Int 2) ] in
  let check txn rows =
    let hooks = Ode.Runtime.hooks db txn in
    for _ = 1 to 150 do
      let e = expr rng 3 in
      let binding =
        { Eval.slot = 0; value = (fun (r : Store.row) -> Value.Ref r.oid);
          field = Store.field_reader db txn }
      in
      let f = Eval.compile hooks ~rows:[ ("p", binding) ] ~vars:env ~this:None e in
      List.iter
        (fun (r : Store.row) ->
          let want =
            outcome (fun () -> Eval.eval hooks ~vars:(("p", Value.Ref r.oid) :: env) ~this:None e)
          in
          let got = outcome (fun () -> f [| r |]) in
          if not (same want got) then
            Alcotest.failf "%s on %a: compiled %s, interpreted %s"
              (Ode_lang.Pp.expr_to_string e) Ode_model.Oid.pp r.oid (show got) (show want))
        rows
    done
  in
  let fetch txn oids = List.filter_map (Store.fetch db txn) oids in
  check None (fetch None committed);
  let txn = Db.begin_txn db in
  let before = fetch (Some txn) committed in
  List.iteri
    (fun i oid ->
      if i mod 3 = 0 then
        Db.update txn oid [ ("id", Value.Int (small rng)); ("tag", Value.Str (str rng)) ])
    committed;
  let created =
    List.init 6 (fun i ->
        let cls = classes.(i mod 4) in
        Db.pnew txn cls (inits rng committed cls))
  in
  List.iteri (fun i oid -> if i mod 5 = 0 then Db.pdelete txn oid) committed;
  (* Rows fetched before the writes are stale for the rewritten and the
     deleted objects: a compiled read must see the overlay as the
     interpreter does. *)
  check (Some txn) (before @ fetch (Some txn) (committed @ created));
  Db.abort txn;
  Db.close db

let suite =
  [
    ( "eval.compile",
      List.map
        (fun seed ->
          Alcotest.test_case (Printf.sprintf "matches eval, seed %d" seed) `Quick (differential seed))
        [ 1; 2; 3 ] );
  ]
