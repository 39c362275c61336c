(* The expression evaluator with null hooks (closed expressions) and the
   static typechecker. Object-touching evaluation is covered in
   test_database and test_query. *)

module Ast = Ode_lang.Ast
module Parser = Ode_lang.Parser
module Value = Ode_model.Value
module Eval = Ode_model.Eval
module Typecheck = Ode_model.Typecheck
module Catalog = Ode_model.Catalog
module Otype = Ode_model.Otype

let ev ?(vars = []) src =
  Eval.eval Eval.null_hooks ~vars ~this:None (Parser.expr src)

let check src expected = Tutil.check_value src expected (ev src)

let arithmetic () =
  check "1 + 2 * 3" (Value.Int 7);
  check "7 / 2" (Value.Int 3);
  check "7.0 / 2" (Value.Float 3.5);
  check "1 + 2.5" (Value.Float 3.5);
  check "7 % 3" (Value.Int 1);
  check "-(4)" (Value.Int (-4));
  check "\"a\" + \"b\"" (Value.Str "ab")

let division_by_zero () =
  match ev "1 / 0" with
  | _ -> Alcotest.fail "expected error"
  | exception Eval.Error _ -> ()

let comparisons () =
  check "1 < 2" (Value.Bool true);
  check "2 <= 2" (Value.Bool true);
  check "\"a\" < \"b\"" (Value.Bool true);
  check "1 == 1.0" (Value.Bool true);
  check "1 != 2" (Value.Bool true);
  check "3 > 4" (Value.Bool false)

let null_semantics () =
  check "null == null" (Value.Bool true);
  check "null != 1" (Value.Bool true);
  check "null < 1" (Value.Bool false);
  check "null > 1" (Value.Bool false);
  check "null + 1" Value.Null;
  check "-(null)" Value.Null

let logic_short_circuit () =
  check "true || (1 / 0 == 0)" (Value.Bool true);
  check "false && (1 / 0 == 0)" (Value.Bool false);
  check "!true" (Value.Bool false);
  check "null || true" (Value.Bool true) (* null is falsy in conditions *)

let sets_and_lists () =
  check "2 in {1, 2, 3}" (Value.Bool true);
  check "9 in {1, 2, 3}" (Value.Bool false);
  check "{3, 1, 2}" (Value.set_of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ]);
  check "{1, 2} + {2, 3}" (Value.set_of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ]);
  check "{1, 2, 3} - {2}" (Value.set_of_list [ Value.Int 1; Value.Int 3 ]);
  check "[1, 2] + [2]" (Value.VList [ Value.Int 1; Value.Int 2; Value.Int 2 ]);
  check "2 in [1, 2]" (Value.Bool true)

let builtins () =
  check "abs(-4)" (Value.Int 4);
  check "abs(-4.5)" (Value.Float 4.5);
  check "size(\"abc\")" (Value.Int 3);
  check "size({1, 2})" (Value.Int 2);
  check "min(3, 5)" (Value.Int 3);
  check "max(3, 5)" (Value.Int 5);
  check "int(3.9)" (Value.Int 3);
  check "float(3)" (Value.Float 3.0);
  check "str(12)" (Value.Str "12")

let vars_and_errors () =
  Tutil.check_value "bound var" (Value.Int 5) (ev ~vars:[ ("x", Value.Int 5) ] "x + 0");
  (match ev "unbound" with
  | _ -> Alcotest.fail "expected unbound error"
  | exception Eval.Error _ -> ());
  (match ev "this" with
  | _ -> Alcotest.fail "expected no-this error"
  | exception Eval.Error _ -> ());
  match ev "1 + \"s\"" with
  | _ -> Alcotest.fail "expected type error"
  | exception Eval.Error _ -> ()

let truthiness () =
  Tutil.check_bool "true" true (Eval.truthy (Value.Bool true));
  Tutil.check_bool "false" false (Eval.truthy (Value.Bool false));
  Tutil.check_bool "null" false (Eval.truthy Value.Null);
  match Eval.truthy (Value.Int 1) with
  | _ -> Alcotest.fail "ints are not conditions"
  | exception Eval.Error _ -> ()

(* -- typechecker --------------------------------------------------------- *)

let mk_env () =
  let t = Catalog.create () in
  List.iter
    (function Ast.TClass c -> ignore (Catalog.define t c) | _ -> ())
    (Ode_lang.Parser.program Tutil.university_schema);
  fun ?this_class vars ->
    {
      Typecheck.catalog = t;
      vars;
      this_class = Option.map (Catalog.find_exn t) this_class;
    }

let tc_infers () =
  let env = mk_env () in
  let infer ?this_class vars src = Typecheck.infer (env ?this_class vars) (Parser.expr src) in
  Tutil.check_bool "int" true (infer [] "1 + 2" = Known Otype.TInt);
  Tutil.check_bool "promote" true (infer [] "1 + 2.0" = Known Otype.TFloat);
  Tutil.check_bool "bool" true (infer [] "1 < 2" = Known Otype.TBool);
  Tutil.check_bool "field through ref" true
    (infer [ ("p", Typecheck.Known (Otype.TRef "student")) ] "p.gpa" = Known Otype.TFloat);
  Tutil.check_bool "inherited field" true
    (infer [ ("p", Typecheck.Known (Otype.TRef "student")) ] "p.age" = Known Otype.TInt);
  Tutil.check_bool "this" true (infer ~this_class:"person" [] "this.age + 1" = Known Otype.TInt);
  Tutil.check_bool "method return" true
    (infer [ ("p", Typecheck.Known (Otype.TRef "person")) ] "p.describe()" = Known Otype.TString);
  Tutil.check_bool "dyn var" true (infer [ ("x", Typecheck.Dyn) ] "x.anything" = Dyn)

let tc_rejects () =
  let env = mk_env () in
  let bad ?this_class vars src =
    match Typecheck.infer (env ?this_class vars) (Parser.expr src) with
    | _ -> Alcotest.failf "expected type error for %s" src
    | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()
  in
  bad [] "1 + \"s\"";
  bad [] "unbound_var";
  bad [ ("p", Typecheck.Known (Otype.TRef "person")) ] "p.ghost";
  bad [ ("p", Typecheck.Known (Otype.TRef "person")) ] "p.describe(1)";
  bad [ ("p", Typecheck.Known (Otype.TRef "person")) ] "p.nosuch()";
  bad [] "this.age";
  bad [] "1 is ghostclass" |> ignore;
  bad [ ("s", Typecheck.Known (Otype.TSet Otype.TInt)) ] "s < s"

let tc_class_bodies () =
  let t = Catalog.create () in
  let define src =
    match Ode_lang.Parser.program src with
    | [ Ast.TClass c ] -> Catalog.define t c
    | _ -> Alcotest.fail "one class"
  in
  (* check_class validates the bodies as the database layer would (after the
     implicit-this rewrite, which these sources spell explicitly). *)
  let good = define "class ok { q: int; constraint pos: this.q >= 0; method m(): int = this.q * 2; };" in
  (match Typecheck.check_class t good with () -> () | exception e -> raise e);
  let bad = define "class nok { q: int; method m(): string = this.q + 1; };" in
  match Typecheck.check_class t bad with
  | _ -> Alcotest.fail "expected method return mismatch"
  | exception Ode_util.Ode_error.Error { cls = User; _ } -> ()

let suite =
  [
    ( "eval",
      [
        Alcotest.test_case "arithmetic" `Quick arithmetic;
        Alcotest.test_case "division by zero" `Quick division_by_zero;
        Alcotest.test_case "comparisons" `Quick comparisons;
        Alcotest.test_case "null semantics" `Quick null_semantics;
        Alcotest.test_case "short-circuit logic" `Quick logic_short_circuit;
        Alcotest.test_case "sets and lists" `Quick sets_and_lists;
        Alcotest.test_case "builtins" `Quick builtins;
        Alcotest.test_case "variables and errors" `Quick vars_and_errors;
        Alcotest.test_case "truthiness" `Quick truthiness;
      ] );
    ( "typecheck",
      [
        Alcotest.test_case "inference" `Quick tc_infers;
        Alcotest.test_case "rejections" `Quick tc_rejects;
        Alcotest.test_case "class body validation" `Quick tc_class_bodies;
      ] );
  ]
