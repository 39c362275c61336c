(* Object versioning for design data (paper §4).

   A CAD-style scenario: circuit layouts evolve through revisions; released
   assemblies pin *specific versions* of their parts (Vref), while work in
   progress follows the *generic reference* (Ref), which always denotes the
   current version. This is exactly the paper's specific-vs-generic
   reference distinction, plus vprev/vnext history walks and version
   deletion.

   Run with:  dune exec examples/cad_versions.exe *)

module Db = Ode.Database
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let schema =
  {|
  class layout {
    lname: string;
    gates: int;
    area: float;
    method density(): float = gates / area;
  };
  class assembly {
    aname: string;
    released: ref layout;   // pinned to a specific version at release time
    dev: ref layout;        // follows the current version
  };
  |}

let () =
  let db = Db.open_in_memory () in
  ignore (Db.define db schema);
  Db.create_cluster db "layout";
  Db.create_cluster db "assembly";

  let alu =
    Db.with_txn db (fun txn ->
        Db.pnew txn "layout" [ ("lname", Str "alu"); ("gates", Int 1200); ("area", Float 4.0) ])
  in

  (* Revise the layout three times; each newversion freezes the old state. *)
  List.iter
    (fun (gates, area) ->
      Db.with_txn db (fun txn ->
          ignore (Db.newversion txn alu);
          Db.update txn alu [ ("gates", Int gates); ("area", Float area) ]))
    [ (1500, 4.0); (1500, 3.2); (1800, 3.0) ];

  (* The release pins version 1 specifically; dev tracks the current. *)
  Db.with_txn db (fun txn ->
      ignore
        (Db.pnew txn "assembly"
           [ ("aname", Str "cpu");
             ("released", Value.Vref { oid = alu; ver = 1 });
             ("dev", Ref alu);
           ]));

  print_endline "== revision history (vprev walk from current) ==";
  Db.with_txn db (fun txn ->
      let rec walk (v : Value.t) =
        match v with
        | Value.Null -> ()
        | v ->
            let field f = Db.eval txn ~vars:[ ("v", v) ] (Parser.expr ("v." ^ f)) in
            let num = Db.eval txn ~vars:[ ("v", v) ] (Parser.expr "vnum(v)") in
            Printf.printf "  v%s: %s gates, density %s\n" (Value.to_string num)
              (Value.to_string (field "gates"))
              (Value.to_string (Db.eval txn ~vars:[ ("v", v) ] (Parser.expr "v.density()")));
            walk (Db.eval txn ~vars:[ ("v", v) ] (Parser.expr "vprev(v)"))
      in
      walk (Value.Ref alu));

  print_endline "== pinned vs tracking references ==";
  Db.with_txn db (fun txn ->
      Ode.Query.run db ~txn ~var:"a" ~cls:"assembly" (fun a ->
          let ev src = Db.eval txn ~vars:[ ("a", Value.Ref a) ] (Parser.expr src) in
          Printf.printf "  %s: released sees %s gates (pinned v%s), dev sees %s gates (v%s)\n"
            (Value.to_string (ev "a.aname"))
            (Value.to_string (ev "a.released.gates"))
            (Value.to_string (ev "vnum(a.released)"))
            (Value.to_string (ev "a.dev.gates"))
            (Value.to_string (ev "vnum(a.dev)"))));

  print_endline "== another revision moves dev but not the release ==";
  Db.with_txn db (fun txn ->
      ignore (Db.newversion txn alu);
      Db.update txn alu [ ("gates", Int 2100); ("area", Float 2.8) ]);
  Db.with_txn db (fun txn ->
      Ode.Query.run db ~txn ~var:"a" ~cls:"assembly" (fun a ->
          let ev src = Db.eval txn ~vars:[ ("a", Value.Ref a) ] (Parser.expr src) in
          Printf.printf "  released=%s gates, dev=%s gates, nversions=%s\n"
            (Value.to_string (ev "a.released.gates"))
            (Value.to_string (ev "a.dev.gates"))
            (Value.to_string (ev "nversions(a.dev)"))));

  print_endline "== pruning an obsolete middle version ==";
  Db.with_txn db (fun txn ->
      Db.pdelete_version txn { oid = alu; ver = 2 };
      Printf.printf "  remaining versions: [%s]\n"
        (String.concat "; " (List.map string_of_int (Db.versions txn alu)));
      (* The history walk silently skips the deleted revision. *)
      let prev_of_3 = Db.eval txn ~vars:[ ("l", Value.Ref alu) ] (Parser.expr "vprev(vref(l, 3)).gates") in
      Printf.printf "  vprev(v3) now reads gates=%s (from v1)\n" (Value.to_string prev_of_3));
  Db.close db
