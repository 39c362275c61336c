(* Linear versioning (paper §4): newversion, generic vs specific references,
   vprev/vnext navigation, version deletion. *)

module Db = Ode.Database
module Value = Ode_model.Value
module Oid = Ode_model.Oid
module Parser = Ode_lang.Parser

let int n = Value.Int n

let setup () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class doc { body: string; rev: int; };");
  Db.create_cluster db "doc";
  db

let newversion_becomes_current () =
  let db = setup () in
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "doc" [ ("body", Value.Str "v0"); ("rev", int 0) ] in
      Tutil.check_int "initial version list" 1 (List.length (Db.versions txn d));
      let v1 = Db.newversion txn d in
      Tutil.check_int "new number" 1 v1;
      Tutil.check_int "current moved" 1 (Db.current_version txn d);
      (* The new current starts as a copy. *)
      Tutil.check_value "copied" (Value.Str "v0") (Db.get_field txn d "body");
      (* Updates hit the current version only. *)
      Db.set_field txn d "body" (Value.Str "v1");
      Tutil.check_value "old frozen" (Value.Str "v0")
        (List.assoc "body" (Option.get (Db.get_version txn { oid = d; ver = 0 })));
      Tutil.check_value "generic ref sees current" (Value.Str "v1") (Db.get_field txn d "body"));
  Db.close db

let navigation_builtins () =
  let db = setup () in
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "doc" [ ("rev", int 0) ] in
      for i = 1 to 3 do
        ignore (Db.newversion txn d);
        Db.set_field txn d "rev" (int i)
      done;
      let vars = [ ("d", Value.Ref d) ] in
      let ev src = Db.eval txn ~vars (Parser.expr src) in
      Tutil.check_value "nversions" (int 4) (ev "nversions(d)");
      Tutil.check_value "vnum current" (int 3) (ev "vnum(d)");
      Tutil.check_value "vprev of generic" (int 2) (ev "vprev(d).rev");
      Tutil.check_value "vprev chain" (int 1) (ev "vprev(vprev(d)).rev");
      Tutil.check_value "vnext" (int 2) (ev "vnext(vprev(vprev(d))).rev");
      Tutil.check_value "vnext at tip" Value.Null (ev "vnext(vref(d, 3))");
      Tutil.check_value "vprev at root" Value.Null (ev "vprev(vref(d, 0))");
      Tutil.check_value "specific ref" (int 1) (ev "vref(d, 1).rev");
      Tutil.check_value "missing version" Value.Null (ev "vref(d, 9)");
      Tutil.check_value "current of vref" (int 3) (ev "current(vref(d, 0)).rev"));
  Db.close db

let delete_old_version () =
  let db = setup () in
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "doc" [ ("rev", int 0) ] in
      ignore (Db.newversion txn d);
      Db.set_field txn d "rev" (int 1);
      ignore (Db.newversion txn d);
      Db.set_field txn d "rev" (int 2);
      Db.pdelete_version txn { oid = d; ver = 1 };
      Tutil.check_bool "list shrunk" true (Db.versions txn d = [ 0; 2 ]);
      Tutil.check_int "current intact" 2 (Db.current_version txn d);
      (* vprev skips the deleted one. *)
      Tutil.check_value "vprev skips" (int 0)
        (Db.eval txn ~vars:[ ("d", Value.Ref d) ] (Parser.expr "vprev(d).rev")));
  Db.close db

let delete_current_promotes () =
  let db = setup () in
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "doc" [ ("rev", int 0) ] in
      ignore (Db.newversion txn d);
      Db.set_field txn d "rev" (int 1);
      Db.pdelete_version txn { oid = d; ver = 1 };
      Tutil.check_int "previous promoted" 0 (Db.current_version txn d);
      Tutil.check_value "state restored" (int 0) (Db.get_field txn d "rev"));
  Db.close db

let delete_last_version_deletes_object () =
  let db = setup () in
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "doc" [] in
      Db.pdelete_version txn { oid = d; ver = 0 };
      Tutil.check_bool "object gone" false (Db.exists db ~txn d));
  Db.close db

let versions_persist () =
  let dir = Tutil.temp_dir "vers" in
  let db = Db.open_ dir in
  ignore (Db.define db "class doc { body: string; rev: int; };");
  Db.create_cluster db "doc";
  let d =
    Db.with_txn db (fun txn ->
        let d = Db.pnew txn "doc" [ ("rev", int 0) ] in
        ignore (Db.newversion txn d);
        Db.set_field txn d "rev" (int 1);
        d)
  in
  Db.close db;
  let db2 = Db.open_ dir in
  Db.with_txn db2 (fun txn ->
      Tutil.check_bool "versions persisted" true (Db.versions txn d = [ 0; 1 ]);
      Tutil.check_value "old readable" (int 0)
        (List.assoc "rev" (Option.get (Db.get_version txn { oid = d; ver = 0 })));
      Tutil.check_value "current readable" (int 1) (Db.get_field txn d "rev"));
  Db.close db2

let index_follows_current_version () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class item { qty: int; };");
  Db.create_cluster db "item";
  Db.create_index db ~cls:"item" ~field:"qty";
  let d = Db.with_txn db (fun txn -> Db.pnew txn "item" [ ("qty", int 5) ]) in
  Db.with_txn db (fun txn ->
      ignore (Db.newversion txn d);
      Db.set_field txn d "qty" (int 50));
  let count q =
    Db.with_txn db (fun _ ->
        Ode.Query.count db ~var:"x" ~cls:"item" ~suchthat:(Parser.expr q) ())
  in
  Tutil.check_int "new value indexed" 1 (count "x.qty == 50");
  Tutil.check_int "old value not indexed" 0 (count "x.qty == 5");
  (* Deleting the current version must re-index the promoted one. *)
  Db.with_txn db (fun txn -> Db.pdelete_version txn { oid = d; ver = 1 });
  Tutil.check_int "promoted value indexed" 1 (count "x.qty == 5");
  Tutil.check_int "dead value gone" 0 (count "x.qty == 50");
  Db.close db

let vref_values_storable () =
  (* Specific version references are first-class values (paper: "specific
     reference to a particular version"). *)
  let db = Db.open_in_memory () in
  ignore (Db.define db "class doc2 { rev: int; }; class pin { target: ref doc2; };");
  Db.create_cluster db "doc2";
  Db.create_cluster db "pin";
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "doc2" [ ("rev", int 0) ] in
      ignore (Db.newversion txn d);
      Db.set_field txn d "rev" (int 1);
      let p = Db.pnew txn "pin" [ ("target", Value.Vref { oid = d; ver = 0 }) ] in
      Tutil.check_value "pinned version read" (int 0)
        (Db.eval txn ~vars:[ ("p", Value.Ref p) ] (Parser.expr "p.target.rev")));
  Db.close db

(* -- model test ------------------------------------------------------------ *)

(* Random sequences of version operations against a file-backed store,
   checked after every transaction against a model: each live object's
   current version number and (version, [a]) list, newest first. Slots pick
   a live object modulo the live count. *)

type op =
  | New of int
  | Update of int * int
  | Newversion of int
  | Del_current of int
  | Del_other of int * int
  | Pdelete of int

let show_op = function
  | New a -> Printf.sprintf "new %d" a
  | Update (s, a) -> Printf.sprintf "update #%d %d" s a
  | Newversion s -> Printf.sprintf "newversion #%d" s
  | Del_current s -> Printf.sprintf "delete-current #%d" s
  | Del_other (s, k) -> Printf.sprintf "delete-other #%d %d" s k
  | Pdelete s -> Printf.sprintf "pdelete #%d" s

module M = Map.Make (struct
  type t = Oid.t

  let compare = compare
end)

type obj = { cur : int; vers : (int * int) list }

let fields a = [ ("a", int a); ("s", Value.Str (String.make (a mod 7) 's')) ]

let pick m slot =
  match M.bindings m with [] -> None | bs -> Some (List.nth bs (slot mod List.length bs))

(* Run [op] in [txn] and return the model after it. *)
let step txn m op =
  let drop_version oid o ver =
    Db.pdelete_version txn { oid; ver };
    match List.filter (fun (v, _) -> v <> ver) o.vers with
    | [] -> M.remove oid m
    | (newest, _) :: _ as vers ->
        M.add oid { cur = (if ver = o.cur then newest else o.cur); vers } m
  in
  match op with
  | New a -> M.add (Db.pnew txn "vm" (fields a)) { cur = 0; vers = [ (0, a) ] } m
  | Update (slot, a) -> (
      match pick m slot with
      | None -> m
      | Some (oid, o) ->
          Db.update txn oid (fields a);
          M.add oid
            { o with vers = List.map (fun (v, x) -> (v, if v = o.cur then a else x)) o.vers }
            m)
  | Newversion slot -> (
      match pick m slot with
      | None -> m
      | Some (oid, o) ->
          let next = fst (List.hd o.vers) + 1 in
          ignore (Db.newversion txn oid);
          M.add oid { cur = next; vers = (next, List.assoc o.cur o.vers) :: o.vers } m)
  | Del_current slot -> (
      match pick m slot with None -> m | Some (oid, o) -> drop_version oid o o.cur)
  | Del_other (slot, k) -> (
      match pick m slot with
      | None -> m
      | Some (oid, o) -> (
          match List.filter (fun (v, _) -> v <> o.cur) o.vers with
          | [] -> m
          | others -> drop_version oid o (fst (List.nth others (k mod List.length others)))))
  | Pdelete slot -> (
      match pick m slot with
      | None -> m
      | Some (oid, _) ->
          Db.pdelete txn oid;
          M.remove oid m)

(* [txn] sees exactly [m]: every version's fields, the version list, the
   current version, [nversions], and no object in [dead]. *)
let agrees db txn m dead =
  let ok = ref true in
  let expect what c = if not c then (ok := false; prerr_endline ("model mismatch: " ^ what)) in
  M.iter
    (fun oid o ->
      let name = Format.asprintf "%a" Oid.pp oid in
      expect (name ^ " versions")
        (Db.versions txn oid = List.sort Int.compare (List.map fst o.vers));
      expect (name ^ " current") (Db.current_version txn oid = o.cur);
      expect (name ^ " nversions")
        (Db.eval txn ~vars:[ ("x", Value.Ref oid) ] (Parser.expr "nversions(x)")
        = int (List.length o.vers));
      expect (name ^ " current fields") (Db.get txn oid = Some (fields (List.assoc o.cur o.vers)));
      List.iter
        (fun (ver, a) ->
          expect
            (Printf.sprintf "%s version %d fields" name ver)
            (Db.get_version txn { oid; ver } = Some (fields a)))
        o.vers)
    m;
  List.iter
    (fun oid -> if not (M.mem oid m) then expect "dead object exists" (not (Db.exists db ~txn oid)))
    dead;
  !ok

let verified db =
  match Ode.Verify.run db with
  | Ok () -> true
  | Error ps ->
      prerr_endline ("verify: " ^ String.concat "; " ps);
      false

let prop_versions_match_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun a -> New a) (int_bound 40));
          (3, map2 (fun s a -> Update (s, a)) nat (int_bound 40));
          (3, map (fun s -> Newversion s) nat);
          (1, map (fun s -> Del_current s) nat);
          (2, map2 (fun s k -> Del_other (s, k)) nat nat);
          (1, map (fun s -> Pdelete s) nat);
        ])
  in
  let gen = QCheck.Gen.(list_size (int_range 1 14) (list_size (int_range 1 4) gen_op)) in
  let print txns =
    String.concat " | " (List.map (fun ops -> String.concat "; " (List.map show_op ops)) txns)
  in
  QCheck.Test.make ~name:"version operations match a model" ~count:40 (QCheck.make ~print gen)
    (fun txns ->
      let dir = Tutil.temp_dir "vmodel" in
      let open_db () = Db.open_ dir in
      let db = ref (open_db ()) in
      ignore (Db.define !db "class vm { a: int; s: string; };");
      Db.create_cluster !db "vm";
      Db.create_index !db ~cls:"vm" ~field:"a";
      let m = ref M.empty and dead = ref [] in
      let check () =
        Db.with_txn !db (fun txn -> agrees !db txn !m !dead) && verified !db
      in
      let ok = ref true in
      let half = List.length txns / 2 in
      List.iteri
        (fun i ops ->
          if i = half then begin
            Db.close !db;
            db := open_db ();
            ok := !ok && check ()
          end;
          (* A snapshot pinned before the transaction must still read the
             state before it, including versions it moved or deleted. *)
          let before = !m in
          let snap = Db.begin_txn !db in
          m := Db.with_txn !db (fun txn -> List.fold_left (step txn) !m ops);
          dead := List.filter (fun o -> not (M.mem o !m)) (M.fold (fun o _ l -> o :: l) before !dead);
          ok := !ok && agrees !db snap before [] && check ();
          Db.abort snap)
        txns;
      Db.crash !db;
      db := open_db ();
      ok := !ok && check ();
      Db.close !db;
      !ok)

(* The same kind of model over a diamond hierarchy, where records store
   fields by slot in each class's linearized field order. [bottom]'s
   lineage is base, right, left, bottom, so [left]'s own field [l] sits at
   slot 2 in a [left] and at slot 3 in a [bottom]; the index on [left(l)]
   and the deep extent [left*] read one name at both slots. *)

let diamond_schema =
  {|class base { id: int; tag: string; };
    class left : base { l: int; };
    class right : base { r: int; };
    class bottom : right, left { b: int; };|}

(* Field names in slot order, as [Db.get] must return them. *)
let diamond_layout = function
  | "base" -> [ "id"; "tag" ]
  | "left" -> [ "id"; "tag"; "l" ]
  | "right" -> [ "id"; "tag"; "r" ]
  | _ -> [ "id"; "tag"; "r"; "l"; "b" ]

let diamond_classes = [| "base"; "left"; "right"; "bottom" |]

type dop =
  | D_new of int * int
  | D_set of int * int * int
  | D_newversion of int
  | D_del_current of int
  | D_del_other of int * int

let show_dop = function
  | D_new (c, a) -> Printf.sprintf "new %s %d" diamond_classes.(c mod 4) a
  | D_set (s, f, a) -> Printf.sprintf "set #%d field %d := %d" s f a
  | D_newversion s -> Printf.sprintf "newversion #%d" s
  | D_del_current s -> Printf.sprintf "delete-current #%d" s
  | D_del_other (s, k) -> Printf.sprintf "delete-other #%d %d" s k

(* A value for [field] derived from [a]; [tag] is the one string field. *)
let dvalue field a = if field = "tag" then Value.Str (Printf.sprintf "t%d" a) else int a

type dobj = { dcls : string; dcur : int; dvers : (int * (string * Value.t) list) list }

let dstep txn m op =
  let drop_version oid o ver =
    Db.pdelete_version txn { oid; ver };
    match List.filter (fun (v, _) -> v <> ver) o.dvers with
    | [] -> M.remove oid m
    | (newest, _) :: _ as dvers ->
        M.add oid { o with dcur = (if ver = o.dcur then newest else o.dcur); dvers } m
  in
  match op with
  | D_new (c, a) ->
      let cls = diamond_classes.(c mod 4) in
      let fs = List.mapi (fun i f -> (f, dvalue f (a + i))) (diamond_layout cls) in
      (* Initializers in reverse: the record's order is the layout's, not
         the caller's. *)
      M.add (Db.pnew txn cls (List.rev fs)) { dcls = cls; dcur = 0; dvers = [ (0, fs) ] } m
  | D_set (slot, f, a) -> (
      match pick m slot with
      | None -> m
      | Some (oid, o) ->
          let names = diamond_layout o.dcls in
          let field = List.nth names (f mod List.length names) in
          Db.set_field txn oid field (dvalue field a);
          let set fs = List.map (fun (n, v) -> (n, if n = field then dvalue field a else v)) fs in
          M.add oid
            { o with dvers = List.map (fun (v, fs) -> (v, if v = o.dcur then set fs else fs)) o.dvers }
            m)
  | D_newversion slot -> (
      match pick m slot with
      | None -> m
      | Some (oid, o) ->
          let next = fst (List.hd o.dvers) + 1 in
          ignore (Db.newversion txn oid);
          M.add oid { o with dcur = next; dvers = (next, List.assoc o.dcur o.dvers) :: o.dvers } m)
  | D_del_current slot -> (
      match pick m slot with None -> m | Some (oid, o) -> drop_version oid o o.dcur)
  | D_del_other (slot, k) -> (
      match pick m slot with
      | None -> m
      | Some (oid, o) -> (
          match List.filter (fun (v, _) -> v <> o.dcur) o.dvers with
          | [] -> m
          | others -> drop_version oid o (fst (List.nth others (k mod List.length others)))))

(* Every read path sees the model: whole objects and versions by name,
   single fields, and the deep extent of [left] probed on [l]. *)
let diamond_agrees db txn m =
  let ok = ref true in
  let expect what c = if not c then (ok := false; prerr_endline ("diamond mismatch: " ^ what)) in
  M.iter
    (fun oid o ->
      let name = Format.asprintf "%a" Oid.pp oid in
      let cur = List.assoc o.dcur o.dvers in
      expect (name ^ " get") (Db.get txn oid = Some cur);
      List.iter (fun (f, v) -> expect (name ^ " get_field " ^ f) (Db.get_field txn oid f = v)) cur;
      List.iter
        (fun (ver, fs) ->
          expect (Printf.sprintf "%s version %d" name ver) (Db.get_version txn { oid; ver } = Some fs))
        o.dvers)
    m;
  for l = 0 to 3 do
    let want =
      M.fold
        (fun oid o acc ->
          match List.assoc_opt "l" (List.assoc o.dcur o.dvers) with
          | Some (Value.Int x) when x mod 4 = l -> oid :: acc
          | _ -> acc)
        m []
    in
    let got =
      Ode.Query.to_list db ~txn ~var:"x" ~cls:"left" ~deep:true
        ~suchthat:(Parser.expr (Printf.sprintf "x.l %% 4 == %d" l))
        ()
    in
    expect (Printf.sprintf "left* with l mod 4 = %d" l) (List.sort compare got = List.sort compare want)
  done;
  !ok

let prop_diamond_matches_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun c a -> D_new (c, a)) nat (int_bound 40));
          (4, map3 (fun s f a -> D_set (s, f, a)) nat nat (int_bound 40));
          (3, map (fun s -> D_newversion s) nat);
          (1, map (fun s -> D_del_current s) nat);
          (2, map2 (fun s k -> D_del_other (s, k)) nat nat);
        ])
  in
  let gen = QCheck.Gen.(list_size (int_range 1 12) (list_size (int_range 1 5) gen_op)) in
  let print txns =
    String.concat " | " (List.map (fun ops -> String.concat "; " (List.map show_dop ops)) txns)
  in
  QCheck.Test.make ~name:"diamond hierarchy matches a model" ~count:30 (QCheck.make ~print gen)
    (fun txns ->
      let dir = Tutil.temp_dir "diamond" in
      let open_db () = Db.open_ dir in
      let db = ref (open_db ()) in
      ignore (Db.define !db diamond_schema);
      Array.iter (Db.create_cluster !db) diamond_classes;
      Db.create_index !db ~cls:"left" ~field:"l";
      Db.create_index !db ~cls:"base" ~field:"id";
      let m = ref M.empty in
      let check () = Db.with_txn !db (fun txn -> diamond_agrees !db txn !m) && verified !db in
      let ok = ref true in
      List.iteri
        (fun i ops ->
          if i = List.length txns / 2 then begin
            Db.close !db;
            db := open_db ();
            ok := !ok && check ()
          end;
          m := Db.with_txn !db (fun txn -> List.fold_left (dstep txn) !m ops);
          ok := !ok && check ())
        txns;
      Db.crash !db;
      db := open_db ();
      ok := !ok && check ();
      Db.close !db;
      !ok)

let suite =
  [
    ( "version.model",
      [
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]) prop_versions_match_model;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |]) prop_diamond_matches_model;
      ] );
    ( "version",
      [
        Alcotest.test_case "newversion becomes current" `Quick newversion_becomes_current;
        Alcotest.test_case "navigation builtins" `Quick navigation_builtins;
        Alcotest.test_case "delete old version" `Quick delete_old_version;
        Alcotest.test_case "delete current promotes" `Quick delete_current_promotes;
        Alcotest.test_case "delete last version deletes object" `Quick delete_last_version_deletes_object;
        Alcotest.test_case "versions persist across reopen" `Quick versions_persist;
        Alcotest.test_case "index follows current version" `Quick index_follows_current_version;
        Alcotest.test_case "vrefs are storable values" `Quick vref_values_storable;
      ] );
  ]
