(* The surface-language driver: scripted sessions including the paper's
   worked examples. *)

module Db = Ode.Database
module Shell = Ode.Shell

let session script =
  let db = Db.open_in_memory () in
  let out = Buffer.create 256 in
  let shell = Shell.create ~print:(Buffer.add_string out) db in
  let result = Shell.exec_catching shell script in
  let text = Buffer.contents out in
  Db.close db;
  (result, text)

let expect_output script expected () =
  match session script with
  | Ok (), text -> Tutil.check_string "output" expected text
  | Error e, _ -> Alcotest.failf "script failed: %s" e.msg

let expect_error script fragment () =
  match session script with
  | Ok (), _ -> Alcotest.fail "expected an error"
  | Error { cls; msg }, _ ->
      if cls <> Ode_util.Ode_error.User then
        Alcotest.failf "error %S has class %s, want user" msg (Ode_util.Ode_error.class_name cls);
      if not (Tutil.contains msg fragment) then Alcotest.failf "error %S lacks %S" msg fragment

let stockitem_example =
  {|
  class supplier { sname: string; city: string; };
  class stockitem {
    name: string; qty: int; price: float; sup: ref supplier;
    constraint positive: qty >= 0;
    method cost(): float = qty * price;
  };
  create cluster supplier;
  create cluster stockitem;
  s := pnew supplier { sname = "att", city = "berkeley hts" };
  i := pnew stockitem { name = "512 dram", qty = 3, price = 5.0, sup = s };
  j := pnew stockitem { name = "256 dram", qty = 100, price = 2.0, sup = s };
  forall x in stockitem suchthat x.qty < 50 { print x.name, x.cost(), x.sup.city; };
  |}

let basics = expect_output stockitem_example "512 dram 15 berkeley hts\n"

let ordering =
  expect_output
    (stockitem_example ^ {| forall x in stockitem by x.qty desc { print x.name; }; |})
    "512 dram 15 berkeley hts\n256 dram\n512 dram\n"

let hierarchy_query =
  expect_output
    (Tutil.university_schema
    ^ {|
      create cluster person; create cluster student; create cluster faculty; create cluster ta;
      pnew person { name = "p", age = 30 };
      pnew student { name = "s", age = 20, gpa = 3.0 };
      pnew faculty { name = "f", age = 50 };
      total := 0;
      forall x in person* { total := total + x.age; };
      print total;
      forall x in person* suchthat x is faculty { print x.describe(); };
      |})
    "100\nfaculty f\n"

let txn_control =
  expect_output
    {|
    class t { v: int; };
    create cluster t;
    begin;
    pnew t { v = 1 };
    abort;
    begin;
    pnew t { v = 2 };
    commit;
    forall x in t { print x.v; };
    |}
    "2\n"

let constraint_error =
  expect_error
    {|
    class c { q: int; constraint pos: q >= 0; };
    create cluster c;
    pnew c { q = 0-1 };
    |}
    "constraint c.pos violated"

let explain_statement =
  expect_output
    {|
    class e { f: int; };
    create cluster e;
    create index on e(f);
    explain forall x in e suchthat x.f == 3;
    explain forall x in e;
    |}
    ("index probe e(f) = 3 \xe2\x80\x94 est ~50 rows, cost ~208 (defaults)\n"
    ^ "full scan of cluster e \xe2\x80\x94 est ~1000 rows, cost ~1000 (defaults)\n")

(* The [explain] statement plans in the shell's bindings, exactly as
   [.explain] and execution do: [lim] is a constant, so the conjunct is an
   index probe, not a full scan. *)
let explain_sees_shell_vars () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let out = Buffer.create 256 in
  let shell = Shell.create ~print:(Buffer.add_string out) db in
  let run src =
    match Shell.exec_catching shell src with Ok () -> () | Error e -> Alcotest.fail e.msg
  in
  run
    {|class person { name: string; age: int; };
      create cluster person;
      create index on person(age);
      pnew person { name = "ann", age = 3 };
      lim := 3;|};
  Buffer.clear out;
  run "explain forall x in person suchthat x.age == lim;";
  let stmt = String.trim (Buffer.contents out) in
  let dot =
    Option.get (Shell.dot_command shell ".explain forall x in person suchthat x.age == lim")
  in
  Tutil.check_string "explain statement = .explain" dot stmt;
  Tutil.check_bool "index probe" true (Tutil.contains stmt "index probe person(age) = 3")

let insert_remove_sets =
  expect_output
    {|
    class bag { items: set<string>; };
    create cluster bag;
    b := pnew bag { };
    insert "x" into b.items;
    insert "y" into b.items;
    insert "x" into b.items;
    print size(b.items);
    remove "x" from b.items;
    print b.items, "y" in b.items;
    |}
    "2\n{\"y\"} true\n"

let if_else_and_vars =
  expect_output
    {|
    x := 3;
    if (x > 2) { print "big"; } else { print "small"; };
    y := x * 2 + 1;
    print y, min(y, 5);
    |}
    "big\n7 5\n"

let parse_error_reported = expect_error "class { broken" "error"

(* Errors point at a line and a column, not at a byte offset. *)
let parse_error_line_col () =
  expect_error "class a { v: int; };\ncreate cluster a;\npnew a { v = 1 ;\n"
    "parse error at line 3, col 16: " ();
  expect_error "class a { v: int; };\n  @" "lex error at line 2, col 3: " ()
let unknown_class_reported = expect_error "pnew ghost { };" "unknown class ghost"
let no_cluster_hint = expect_error "class nc { v: int; }; pnew nc { };" "create cluster nc"

(* An evaluation error's message carries no prefix of its own: each
   surface prints "error: " in front exactly once. *)
let eval_error_unprefixed () =
  match session "class r { v: int; }; create cluster r; print nosuch(1);" with
  | Ok (), _ -> Alcotest.fail "expected an error"
  | Error { cls; msg }, _ ->
      Tutil.check_string "class" "user" (Ode_util.Ode_error.class_name cls);
      Tutil.check_string "message" "unknown function nosuch" msg

let show_classes =
  expect_output
    {|
    class a { v: int; };
    class b : a { w: int; };
    create cluster a;
    show classes;
    |}
    "class a  [cluster]\nclass b : a\n"

let shell_vars_tracked () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:ignore db in
  (match Shell.exec_catching shell "class v { x: int; }; create cluster v; q := pnew v { x = 1 }; n := 5;" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "script failed: %s" e.msg);
  let vars = Shell.vars shell in
  Tutil.check_bool "n bound" true (List.assoc_opt "n" vars = Some (Ode_model.Value.Int 5));
  Tutil.check_bool "q bound to a ref" true
    (match List.assoc_opt "q" vars with Some (Ode_model.Value.Ref _) -> true | _ -> false);
  Db.close db

let bank_script_runs () =
  let path = "../examples/scripts/bank.oql" in
  if not (Sys.file_exists path) then Alcotest.skip ()
  else begin
    let source = In_channel.with_open_text path In_channel.input_all in
    match session source with
    | Ok (), text ->
        Tutil.check_bool "produces the report" true
          (String.length text > 0
          && List.exists
               (fun line -> line = "total deposits: 1520 across 3 accounts")
               (String.split_on_char '\n' text))
    | Error e, _ -> Alcotest.failf "bank.oql failed: %s" e.msg
  end

let suite =
  [
    ( "shell",
      [
        Alcotest.test_case "stockitem example" `Quick basics;
        Alcotest.test_case "by ordering" `Quick ordering;
        Alcotest.test_case "hierarchy queries and is" `Quick hierarchy_query;
        Alcotest.test_case "begin/abort/commit" `Quick txn_control;
        Alcotest.test_case "constraint violations reported" `Quick constraint_error;
        Alcotest.test_case "explain" `Quick explain_statement;
        Alcotest.test_case "explain sees shell variables" `Quick explain_sees_shell_vars;
        Alcotest.test_case "set insert/remove" `Quick insert_remove_sets;
        Alcotest.test_case "if/else and variables" `Quick if_else_and_vars;
        Alcotest.test_case "parse errors reported" `Quick parse_error_reported;
        Alcotest.test_case "unknown class reported" `Quick unknown_class_reported;
        Alcotest.test_case "missing cluster hint" `Quick no_cluster_hint;
        Alcotest.test_case "show classes" `Quick show_classes;
        Alcotest.test_case "evaluation errors unprefixed" `Quick eval_error_unprefixed;
        Alcotest.test_case "shell variables tracked" `Quick shell_vars_tracked;
        Alcotest.test_case "bank.oql example script" `Quick bank_script_runs;
        Alcotest.test_case "parse errors report line and column" `Quick parse_error_line_col;
      ] );
  ]
