(* Lexer, parser and the pretty-printer round-trip (the catalog persists
   schemas as source, so parse(pp(ast)) = ast is load-bearing). *)

module Ast = Ode_lang.Ast
module Lexer = Ode_lang.Lexer
module Parser = Ode_lang.Parser
module Pp = Ode_lang.Pp

let lex_kinds () =
  let toks = List.map fst (Lexer.tokenize {|class x 12 3.5 "s\"q" := ==> // comment
  /* multi
     line */ y|}) in
  let expected =
    Lexer.
      [
        KW "class";
        IDENT "x";
        INT 12;
        FLOAT 3.5;
        STRING "s\"q";
        PUNCT ":=";
        PUNCT "==>";
        IDENT "y";
        EOF;
      ]
  in
  Tutil.check_bool "token stream" true (toks = expected)

let lex_errors () =
  (match Lexer.tokenize "@" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error _ -> ());
  (match Lexer.tokenize "\"unterminated" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error _ -> ());
  match Lexer.tokenize "/* open" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error _ -> ()

let parse_expr_precedence () =
  let e = Parser.expr "1 + 2 * 3 == 7 && !false" in
  Tutil.check_bool "precedence tree" true
    (e
    = Ast.Binop
        ( And,
          Binop (Eq, Binop (Add, Int 1, Binop (Mul, Int 2, Int 3)), Int 7),
          Unop (Not, Bool false) ))

let parse_postfix_chain () =
  let e = Parser.expr "x.sup.city" in
  Tutil.check_bool "field chain" true (e = Ast.Field (Field (Var "x", "sup"), "city"));
  let e2 = Parser.expr "x.value(1, y.q)" in
  Tutil.check_bool "method call" true
    (e2 = Ast.Call (Some (Var "x"), "value", [ Int 1; Field (Var "y", "q") ]))

let parse_is_and_in () =
  Tutil.check_bool "is" true (Parser.expr "p is faculty" = Ast.Is (Var "p", "faculty"));
  Tutil.check_bool "in" true (Parser.expr "x in {1, 2}" = Ast.Binop (In, Var "x", SetLit [ Int 1; Int 2 ]))

let parse_class_full () =
  match Parser.program Tutil.university_schema with
  | [ TClass p; TClass s; TClass f; TClass t ] ->
      Tutil.check_string "person" "person" p.c_name;
      Tutil.check_int "person fields" 3 (List.length p.c_fields);
      Tutil.check_int "person methods" 1 (List.length p.c_methods);
      Tutil.check_string_list "student parents" [ "person" ] s.c_parents;
      Tutil.check_int "student constraints" 1 (List.length s.c_constraints);
      Tutil.check_string_list "ta parents" [ "student"; "faculty" ] t.c_parents;
      Tutil.check_string "faculty override" "describe" (List.hd f.c_methods).m_name
  | _ -> Alcotest.fail "expected four classes"

let parse_trigger_decl () =
  let src =
    {|class c { qty: int;
       trigger perpetual watch(n: int): within n + 1 : qty < n ==> { print "low"; } timeout { print "late"; };
     };|}
  in
  match Parser.program src with
  | [ TClass c ] ->
      let g = List.hd c.c_triggers in
      Tutil.check_bool "perpetual" true g.g_perpetual;
      Tutil.check_bool "within" true (g.g_within <> None);
      Tutil.check_int "timeout stmts" 1 (List.length g.g_timeout)
  | _ -> Alcotest.fail "expected one class"

let parse_forall_variants () =
  (match Parser.stmts "forall x in item { print x; };" with
  | [ SForall q ] -> Tutil.check_bool "plain" true ((not q.q_deep) && q.q_suchthat = None)
  | _ -> Alcotest.fail "plain forall");
  (match Parser.stmts "forall x in item* suchthat x.q > 2 by x.n desc { };" with
  | [ SForall q ] ->
      Tutil.check_bool "deep" true q.q_deep;
      Tutil.check_bool "suchthat" true (q.q_suchthat <> None);
      Tutil.check_bool "desc" true (match q.q_by with Some (_, Desc) -> true | _ -> false)
  | _ -> Alcotest.fail "decorated forall");
  match Parser.stmts "x := pnew c { a = 1 }; x.f := 2; pdelete x;" with
  | [ SNew (Some "x", "c", [ ("a", Int 1) ]); SSetField (Var "x", "f", Int 2); SDelete (Var "x") ]
    ->
      ()
  | _ -> Alcotest.fail "statement forms"

let parse_tops () =
  let tops =
    Parser.program
      "create cluster a; create index on a(f); begin; commit; abort; show classes; advance time 5;"
  in
  Tutil.check_bool "top forms" true
    (tops
    = [
        TCreateCluster "a";
        TCreateIndex ("a", "f");
        TBegin;
        TCommit;
        TAbort;
        TShowClasses;
        TAdvance (Int 5);
      ])

let parse_error_position () =
  match Parser.program "class { }" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error (_, { offset; _ }) ->
      Tutil.check_bool "offset sane" true (offset >= 6)

(* -- source positions ---------------------------------------------------------- *)

let check_pos what (line, col) (p : Lexer.pos) =
  Tutil.check_int (what ^ " line") line p.line;
  Tutil.check_int (what ^ " col") col p.col

let pos_at_lines_and_columns () =
  let src = "ab\ncd\n\nx" in
  check_pos "start" (1, 1) (Lexer.pos_at src 0);
  check_pos "newline stays on its line" (1, 3) (Lexer.pos_at src 2);
  check_pos "after newline" (2, 1) (Lexer.pos_at src 3);
  check_pos "after blank line" (4, 1) (Lexer.pos_at src 7);
  check_pos "past the end clamps" (4, 2) (Lexer.pos_at src 100);
  Tutil.check_int "clamped offset" (String.length src) (Lexer.pos_at src 100).offset;
  check_pos "negative clamps" (1, 1) (Lexer.pos_at src (-3))

let parse_error_on_later_line () =
  (match Parser.program "class a {\n  v: int;\n  w int;\n};" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error (_, p) -> check_pos "missing colon" (3, 5) p);
  match Parser.program "class a {\n  v: int;\n" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error (_, p) -> check_pos "end of input" (3, 1) p

(* An unterminated string is reported at its first byte, just after the quote. *)
let lex_error_on_later_line () =
  match Lexer.tokenize "x := 1;\n\n   \"abc" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error (_, p) -> check_pos "unterminated string" (3, 5) p

(* -- round-trip property ----------------------------------------------------- *)

let ident_gen = QCheck.Gen.(map (fun n -> Printf.sprintf "v%d" (abs n mod 20)) int)

let expr_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Ast.Null;
               map (fun i -> Ast.Int (abs i)) int;
               map (fun b -> Ast.Bool b) bool;
               map (fun f -> Ast.Float (Float.abs f)) (float_bound_exclusive 1e6);
               map (fun s -> Ast.Str s) (string_size ~gen:(char_range 'a' 'z') (int_bound 8));
               map (fun v -> Ast.Var v) ident_gen;
               return Ast.This;
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2 (fun e f -> Ast.Field (e, f)) sub ident_gen;
               map3
                 (fun op a b -> Ast.Binop (op, a, b))
                 (oneofl Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or; In ])
                 sub sub;
               map (fun e -> Ast.Unop (Neg, e)) sub;
               map (fun e -> Ast.Unop (Not, e)) sub;
               map2 (fun e c -> Ast.Is (e, c)) sub ident_gen;
               map2 (fun f args -> Ast.Call (None, f, args)) ident_gen (list_size (int_bound 3) sub);
               map3 (fun r f args -> Ast.Call (Some r, f, args)) sub ident_gen (list_size (int_bound 2) sub);
               map (fun es -> Ast.SetLit es) (list_size (int_bound 3) sub);
               map (fun es -> Ast.ListLit es) (list_size (int_bound 3) sub);
             ])

let arb_expr = QCheck.make ~print:Pp.expr_to_string expr_gen

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"parse (pp expr) = expr" ~count:500 arb_expr (fun e ->
      Parser.expr (Pp.expr_to_string e) = e)

let stmt_gen =
  let open QCheck.Gen in
  let e = expr_gen in
  oneof
    [
      map (fun x -> Ast.SExpr x) e;
      map (fun x -> Ast.SPrint [ x ]) e;
      map2 (fun v x -> Ast.SAssign (v, x)) ident_gen e;
      map3 (fun o f x -> Ast.SSetField (o, f, x)) e ident_gen e;
      map2 (fun c x -> Ast.SNew (Some "t", c, [ ("f", x) ])) ident_gen e;
      map (fun x -> Ast.SDelete x) e;
      map (fun x -> Ast.SNewVersion x) e;
      map3 (fun c a b -> Ast.SIf (c, [ Ast.SPrint [ a ] ], [ Ast.SPrint [ b ] ])) e e e;
      map2 (fun v x -> Ast.SInsert (x, "f", Ast.Var v)) ident_gen e;
      map (fun x -> Ast.SReturn x) e;
    ]

let prop_stmt_roundtrip =
  QCheck.Test.make ~name:"parse (pp stmt) = stmt" ~count:300
    (QCheck.make
       ~print:(fun s -> Pp.stmts_to_string [ s ])
       stmt_gen)
    (fun s -> Parser.stmts (Pp.stmts_to_string [ s ]) = [ s ])

let class_roundtrip () =
  match Parser.program Tutil.university_schema with
  | decls ->
      List.iter
        (function
          | Ast.TClass c ->
              let src = Pp.class_to_string c in
              (match Parser.program src with
              | [ Ast.TClass c' ] ->
                  if not (Ast.equal_class_decl c c') then
                    Alcotest.failf "class %s did not round-trip:\n%s" c.c_name src
              | _ -> Alcotest.failf "class %s re-parse shape" c.c_name)
          | _ -> ())
        decls

let trigger_class_roundtrip () =
  let src =
    {|class c { qty: int;
       trigger perpetual watch(n: int): within n + 1 : qty < n ==> { print "low"; } timeout { print "late"; };
       trigger once(m: int): qty == m ==> { qty := qty + 1; };
     };|}
  in
  match Parser.program src with
  | [ Ast.TClass c ] -> (
      match Parser.program (Pp.class_to_string c) with
      | [ Ast.TClass c' ] -> Tutil.check_bool "triggers round-trip" true (Ast.equal_class_decl c c')
      | _ -> Alcotest.fail "re-parse shape")
  | _ -> Alcotest.fail "parse shape"

let suite =
  [
    ( "lexer",
      [
        Alcotest.test_case "token kinds" `Quick lex_kinds;
        Alcotest.test_case "lex errors" `Quick lex_errors;
      ] );
    ( "parser",
      [
        Alcotest.test_case "expression precedence" `Quick parse_expr_precedence;
        Alcotest.test_case "postfix chains" `Quick parse_postfix_chain;
        Alcotest.test_case "is and in" `Quick parse_is_and_in;
        Alcotest.test_case "full class declarations" `Quick parse_class_full;
        Alcotest.test_case "trigger declarations" `Quick parse_trigger_decl;
        Alcotest.test_case "forall variants" `Quick parse_forall_variants;
        Alcotest.test_case "top-level forms" `Quick parse_tops;
        Alcotest.test_case "parse errors carry offsets" `Quick parse_error_position;
        Alcotest.test_case "schema classes round-trip" `Quick class_roundtrip;
        Alcotest.test_case "trigger classes round-trip" `Quick trigger_class_roundtrip;
      ] );
    ( "parser.positions",
      [
        Alcotest.test_case "pos_at counts lines and byte columns" `Quick pos_at_lines_and_columns;
        Alcotest.test_case "parse error on a later line" `Quick parse_error_on_later_line;
        Alcotest.test_case "lex error on a later line" `Quick lex_error_on_later_line;
      ] );
    Tutil.qsuite "lang.props" [ prop_expr_roundtrip; prop_stmt_roundtrip ];
  ]
