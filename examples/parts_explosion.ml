(* Recursive (fixpoint) queries — paper §3.2.

   The classic "parts explosion": which base parts, and how many of each,
   does an assembly transitively contain? The paper's answer to deductive-
   database criticism is that O++ iteration sees elements inserted during
   the iteration, so transitive closure is a plain loop. We show both
   mechanisms:

     1. Odeset worklists (set iteration that sees inserts), and
     2. cluster fixpoint iteration (forall over a cluster where the body
        pnews into the same cluster).

   Run with:  dune exec examples/parts_explosion.exe *)

module Db = Ode.Database
module Query = Ode.Query
module S = Ode.Odeset
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let schema =
  {|
  class part { pname: string; base_cost: int; };
  class uses { parent: ref part; child: ref part; count: int; };
  // Scratch cluster for the cluster-fixpoint variant of the closure.
  class reach { node: ref part; mult: int; };
  |}

let () =
  let db = Db.open_in_memory () in
  ignore (Db.define db schema);
  List.iter (Db.create_cluster db) [ "part"; "uses"; "reach" ];

  (* A small bill of materials:
       car -> 4 wheel, 1 engine
       wheel -> 5 bolt, 1 rim
       engine -> 8 piston, 24 bolt
       piston -> 2 ring *)
  let parts = Hashtbl.create 16 in
  Db.with_txn db (fun txn ->
      let part name cost =
        Hashtbl.replace parts name (Db.pnew txn "part" [ ("pname", Str name); ("base_cost", Int cost) ])
      in
      part "car" 0;
      part "wheel" 0;
      part "engine" 0;
      part "bolt" 2;
      part "rim" 40;
      part "piston" 15;
      part "ring" 3;
      let uses parent child count =
        ignore
          (Db.pnew txn "uses"
             [ ("parent", Ref (Hashtbl.find parts parent));
               ("child", Ref (Hashtbl.find parts child));
               ("count", Int count);
             ])
      in
      uses "car" "wheel" 4;
      uses "car" "engine" 1;
      uses "wheel" "bolt" 5;
      uses "wheel" "rim" 1;
      uses "engine" "piston" 8;
      uses "engine" "bolt" 24;
      uses "piston" "ring" 2);

  let car = Hashtbl.find parts "car" in

  (* -- 1. worklist over a set value ------------------------------------- *)
  print_endline "== parts explosion via set fixpoint (Odeset.iter_fix) ==";
  Db.with_txn db (fun txn ->
      (* Worklist elements are (part, multiplicity) pairs. *)
      let w = S.worklist (S.of_list [ Value.VList [ Ref car; Int 1 ] ]) in
      let totals : (string, int) Hashtbl.t = Hashtbl.create 16 in
      S.iter_fix w (fun v ->
          match v with
          | Value.VList [ Value.Ref p; Value.Int mult ] ->
              let expanded = ref false in
              Query.run db ~txn ~var:"u" ~cls:"uses"
                ~suchthat:(Parser.expr "u.parent == p")
                ~env:[ ("p", Value.Ref p) ]
                (fun u ->
                  expanded := true;
                  match (Db.get_field txn u "child", Db.get_field txn u "count") with
                  | Value.Ref c, Value.Int n ->
                      ignore (S.insert w (Value.VList [ Ref c; Int (mult * n) ]))
                  | _ -> ());
              if not !expanded then begin
                (* A leaf part: accumulate. *)
                let name = Value.to_string (Db.get_field txn p "pname") in
                Hashtbl.replace totals name
                  (mult + Option.value (Hashtbl.find_opt totals name) ~default:0)
              end
          | _ -> ());
      List.iter
        (fun (name, n) -> Printf.printf "  %-10s x %d\n" name n)
        (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])));

  (* Note: multiplicities of the same part reached along different paths
     appear as separate worklist entries and are summed at the leaves —
     20 bolts via wheels + 24 via the engine = 44. *)

  (* -- 2. cluster fixpoint ------------------------------------------------ *)
  print_endline "== reachable parts via cluster fixpoint (forall + pnew) ==";
  Db.with_txn db (fun txn ->
      ignore (Db.pnew txn "reach" [ ("node", Ref car); ("mult", Int 1) ]);
      let seen = Hashtbl.create 16 in
      Query.run db ~txn ~var:"r" ~cls:"reach" ~fixpoint:true (fun r ->
          match Db.get_field txn r "node" with
          | Value.Ref p ->
              if not (Hashtbl.mem seen p) then begin
                Hashtbl.replace seen p ();
                Query.run db ~txn ~var:"u" ~cls:"uses"
                  ~suchthat:(Parser.expr "u.parent == p")
                  ~env:[ ("p", Value.Ref p) ]
                  (fun u ->
                    match Db.get_field txn u "child" with
                    | Value.Ref c ->
                        ignore (Db.pnew txn "reach" [ ("node", Ref c); ("mult", Int 1) ])
                    | _ -> ())
              end
          | _ -> ());
      Printf.printf "  car transitively contains %d distinct part kinds\n"
        (Hashtbl.length seen - 1));

  (* -- 3. rolled-up cost ---------------------------------------------------- *)
  print_endline "== rolled-up cost of the car ==";
  Db.with_txn db (fun txn ->
      let rec cost oid mult =
        let base = match Db.get_field txn oid "base_cost" with Value.Int c -> c | _ -> 0 in
        let sub = ref 0 in
        Query.run db ~txn ~var:"u" ~cls:"uses"
          ~suchthat:(Parser.expr "u.parent == p")
          ~env:[ ("p", Value.Ref oid) ]
          (fun u ->
            match (Db.get_field txn u "child", Db.get_field txn u "count") with
            | Value.Ref c, Value.Int n -> sub := !sub + cost c n
            | _ -> ());
        mult * (base + !sub)
      in
      Printf.printf "  total cost: %d\n" (cost car 1));
  Db.close db
