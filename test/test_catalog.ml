module Ast = Ode_lang.Ast
module Parser = Ode_lang.Parser
module Catalog = Ode_model.Catalog
module Schema = Ode_model.Schema
module Otype = Ode_model.Otype

let decl src =
  match Parser.program src with
  | [ Ast.TClass c ] -> c
  | _ -> Alcotest.fail "expected one class"

let mk_university () =
  let t = Catalog.create () in
  List.iter
    (function Ast.TClass c -> ignore (Catalog.define t c) | _ -> ())
    (Parser.program Tutil.university_schema);
  t

let field_layout () =
  let t = mk_university () in
  let ta = Catalog.find_exn t "ta" in
  let names = Schema.field_names (Catalog.all_fields t ta) in
  (* Diamond: person's fields appear exactly once, base-first. *)
  Tutil.check_string_list "layout" [ "name"; "age"; "income"; "gpa"; "salary"; "hours" ] names

let lineage_order () =
  let t = mk_university () in
  let ta = Catalog.find_exn t "ta" in
  let names = List.map (fun (c : Schema.cls) -> c.Schema.name) (Catalog.lineage t ta) in
  Tutil.check_string_list "lineage" [ "person"; "student"; "faculty"; "ta" ] names

let subclass_queries () =
  let t = mk_university () in
  Tutil.check_bool "reflexive" true (Catalog.is_subclass t ~sub:"person" ~super:"person");
  Tutil.check_bool "direct" true (Catalog.is_subclass t ~sub:"student" ~super:"person");
  Tutil.check_bool "transitive" true (Catalog.is_subclass t ~sub:"ta" ~super:"person");
  Tutil.check_bool "not super" false (Catalog.is_subclass t ~sub:"person" ~super:"student");
  Tutil.check_bool "siblings" false (Catalog.is_subclass t ~sub:"student" ~super:"faculty");
  Tutil.check_string_list "subclasses of person" [ "person"; "student"; "faculty"; "ta" ]
    (Catalog.subclasses t "person");
  Tutil.check_string_list "subclasses of faculty" [ "faculty"; "ta" ] (Catalog.subclasses t "faculty")

let method_dispatch () =
  let t = mk_university () in
  let ta = Catalog.find_exn t "ta" in
  let person = Catalog.find_exn t "person" in
  (* ta inherits describe from faculty (more derived than person's). *)
  let m = Option.get (Catalog.find_method t ta "describe") in
  Tutil.check_bool "override wins" true
    (Ode_lang.Pp.expr_to_string m.mbody |> fun s -> String.length s > 0 && String.sub s 1 9 = "\"faculty ");
  let m0 = Option.get (Catalog.find_method t person "describe") in
  Tutil.check_bool "base version differs" true (m0.mbody <> m.mbody)

let constraints_inherited () =
  let t = mk_university () in
  let ta = Catalog.find_exn t "ta" in
  Tutil.check_int "inherits student constraint" 1 (List.length (Catalog.all_constraints t ta))

let duplicate_class_rejected () =
  let t = mk_university () in
  match Catalog.define t (decl "class person { x: int; };") with
  | _ -> Alcotest.fail "expected a schema error"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let unknown_parent_rejected () =
  let t = Catalog.create () in
  match Catalog.define t (decl "class a : ghost { x: int; };") with
  | _ -> Alcotest.fail "expected a schema error"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let field_clash_rejected () =
  let t = Catalog.create () in
  ignore (Catalog.define t (decl "class a { x: int; };"));
  ignore (Catalog.define t (decl "class b { x: int; };"));
  (match Catalog.define t (decl "class c : a, b { y: int; };") with
  | _ -> Alcotest.fail "expected ambiguity error"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ());
  (* Failed definition must not linger. *)
  Tutil.check_bool "rolled back" true (Catalog.find t "c" = None);
  match Catalog.define t (decl "class d : a { x: int; };") with
  | _ -> Alcotest.fail "own field clashing with inherited"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let unknown_ref_rejected () =
  let t = Catalog.create () in
  match Catalog.define t (decl "class a { r: ref ghost; };") with
  | _ -> Alcotest.fail "expected a schema error"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let self_reference_allowed () =
  let t = Catalog.create () in
  let c = Catalog.define t (decl "class node { next: ref node; v: int; };") in
  Tutil.check_string "self ref ok" "node" c.name

let cluster_lifecycle () =
  let t = mk_university () in
  let person = Catalog.find_exn t "person" in
  Tutil.check_bool "initially absent" false (Catalog.has_cluster t person);
  Catalog.create_cluster t "person";
  Tutil.check_bool "created" true (Catalog.has_cluster t person);
  match Catalog.create_cluster t "person" with
  | _ -> Alcotest.fail "duplicate cluster"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let index_metadata () =
  let t = mk_university () in
  Catalog.add_index t ~cls:"person" ~field:"age";
  Catalog.add_index t ~cls:"student" ~field:"gpa";
  Tutil.check_string_list "on person" [ "age" ] (Catalog.indexes_on t "person");
  (* student sees its own index and the inherited person(age) one. *)
  Tutil.check_string_list "on student" [ "age"; "gpa" ] (List.sort compare (Catalog.indexes_on t "student"));
  (match Catalog.add_index t ~cls:"person" ~field:"age" with
  | _ -> Alcotest.fail "duplicate index"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ());
  (match Catalog.add_index t ~cls:"person" ~field:"ghost" with
  | _ -> Alcotest.fail "unknown field"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ());
  let t2 = Catalog.create () in
  ignore (Catalog.define t2 (decl "class a { s: set<int>; };"));
  match Catalog.add_index t2 ~cls:"a" ~field:"s" with
  | _ -> Alcotest.fail "set fields are not indexable"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let encode_decode_roundtrip () =
  let t = mk_university () in
  Catalog.create_cluster t "person";
  Catalog.add_index t ~cls:"person" ~field:"age";
  let t' = Catalog.decode (Catalog.encode t) in
  let person = Catalog.find_exn t' "person" in
  Tutil.check_bool "cluster flag" true (Catalog.has_cluster t' person);
  Tutil.check_int "class id stable" (Catalog.find_exn t "person").id person.id;
  Tutil.check_bool "indexes" true (Catalog.indexes t' = [ ("person", "age") ]);
  Tutil.check_string_list "subclasses preserved" (Catalog.subclasses t "person")
    (Catalog.subclasses t' "person");
  (* Constraints and methods survive the source round-trip. *)
  let ta = Catalog.find_exn t' "ta" in
  Tutil.check_int "constraints" 1 (List.length (Catalog.all_constraints t' ta));
  Tutil.check_bool "methods" true (Catalog.find_method t' ta "describe" <> None)

let otype_defaults () =
  Tutil.check_value "int" (Ode_model.Value.Int 0) (Otype.default_value Otype.TInt);
  Tutil.check_value "ref" Ode_model.Value.Null (Otype.default_value (Otype.TRef "x"));
  Tutil.check_value "set" (Ode_model.Value.VSet []) (Otype.default_value (Otype.TSet Otype.TInt))

let suite =
  [
    ( "catalog",
      [
        Alcotest.test_case "field layout with diamond" `Quick field_layout;
        Alcotest.test_case "lineage order" `Quick lineage_order;
        Alcotest.test_case "subclass queries" `Quick subclass_queries;
        Alcotest.test_case "method dispatch picks most derived" `Quick method_dispatch;
        Alcotest.test_case "constraints are inherited" `Quick constraints_inherited;
        Alcotest.test_case "duplicate class rejected" `Quick duplicate_class_rejected;
        Alcotest.test_case "unknown parent rejected" `Quick unknown_parent_rejected;
        Alcotest.test_case "field clashes rejected" `Quick field_clash_rejected;
        Alcotest.test_case "unknown ref type rejected" `Quick unknown_ref_rejected;
        Alcotest.test_case "self reference allowed" `Quick self_reference_allowed;
        Alcotest.test_case "cluster lifecycle" `Quick cluster_lifecycle;
        Alcotest.test_case "index metadata" `Quick index_metadata;
        Alcotest.test_case "encode/decode round-trip" `Quick encode_decode_roundtrip;
        Alcotest.test_case "otype defaults" `Quick otype_defaults;
      ] );
  ]
