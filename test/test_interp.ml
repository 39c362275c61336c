(* Statement interpreter details: scoping, control flow, nested loops, the
   implicit-this rewrite, and the new shell commands. *)

module Db = Ode.Database
module Shell = Ode.Shell
module Value = Ode_model.Value

let session script =
  let db = Db.open_in_memory () in
  let out = Buffer.create 256 in
  let shell = Shell.create ~print:(Buffer.add_string out) db in
  let result = Shell.exec_catching shell script in
  let text = Buffer.contents out in
  Db.close db;
  (result, text)

let expect script expected () =
  match session script with
  | Ok (), text -> Tutil.check_string "output" expected text
  | Error e, _ -> Alcotest.failf "script failed: %s" e.msg

let loop_var_scoping =
  (* The loop variable shadows and is restored; accumulators persist. *)
  expect
    {|
    class n { v: int; };
    create cluster n;
    pnew n { v = 1 }; pnew n { v = 2 }; pnew n { v = 3 };
    x := 100;
    sum := 0;
    forall x in n { sum := sum + x.v; };
    print sum, x;
    |}
    "6 100\n"

let nested_foralls =
  expect
    {|
    class a4 { i: int; };
    create cluster a4;
    pnew a4 { i = 1 }; pnew a4 { i = 2 };
    pairs := 0;
    forall x in a4 { forall y in a4 suchthat y.i > x.i { pairs := pairs + 1; }; };
    print pairs;
    |}
    "1\n"

let implicit_this_in_methods =
  (* Bare member names inside class bodies are rewritten to this.f, with
     parameters shadowing fields. *)
  expect
    {|
    class acct {
      balance: int;
      method after(balance: int): int = balance;       // param shadows field
      method doubled(): int = balance * 2;              // field via this
    };
    create cluster acct;
    a := pnew acct { balance = 50 };
    print a.doubled(), a.after(7);
    |}
    "100 7\n"

let implicit_this_in_trigger_actions =
  expect
    {|
    class gauge {
      level: int; label: string;
      trigger over(n: int): level > n ==> { print label, "over", str(n); level := n; };
    };
    create cluster gauge;
    g := pnew gauge { level = 1, label = "boiler" };
    activate g.over(10);
    g.level := 99;
    print g.level;
    |}
    (* The update's commit queues the action; the action transaction runs
       before the next statement (weak coupling) and clamps the level via
       the implicit-this assignment [level := n]. *)
    "boiler over 10\n10\n"

let method_calling_method =
  expect
    {|
    class geom {
      w: int; h: int;
      method area(): int = w * h;
      method volume(d: int): int = this.area() * d;
    };
    create cluster geom;
    g := pnew geom { w = 3, h = 4 };
    print g.volume(10);
    |}
    "120\n"

let deep_field_chains =
  expect
    {|
    class leaf3 { tag: string; };
    class mid3 { l: ref leaf3; };
    class top3 { m: ref mid3; };
    create cluster leaf3; create cluster mid3; create cluster top3;
    l := pnew leaf3 { tag = "deep" };
    m := pnew mid3 { l = l };
    t := pnew top3 { m = m };
    print t.m.l.tag;
    m.l := null;
    print t.m.l;
    |}
    "deep\nnull\n"

let list_insert_remove =
  expect
    {|
    class seq3 { xs: list<int>; };
    create cluster seq3;
    s := pnew seq3 { };
    insert 1 into s.xs;
    insert 2 into s.xs;
    insert 1 into s.xs;
    print s.xs;
    remove 1 from s.xs;
    print s.xs, size(s.xs);
    |}
    "[1, 2, 1]\n[2] 1\n"

let if_without_else =
  expect
    {|
    x := 1;
    if (x == 1) { print "one"; };
    if (x == 2) { print "two"; };
    print "end";
    |}
    "one\nend\n"

let show_stats_runs =
  (fun () ->
    match session "show stats;" with
    | Ok (), text -> Tutil.check_bool "mentions counters" true (String.length text > 10)
    | Error e, _ -> Alcotest.failf "failed: %s" e.msg)

let verify_command =
  expect
    {|
    class ok9 { v: int; };
    create cluster ok9;
    pnew ok9 { v = 1 };
    verify;
    |}
    "ok\n"

let dump_command_roundtrips () =
  let db = Db.open_in_memory () in
  let out = Buffer.create 256 in
  let shell = Shell.create ~print:(Buffer.add_string out) db in
  (match
     Shell.exec_catching shell
       {|
       class d9 { v: int; w: string; };
       create cluster d9;
       pnew d9 { v = 1, w = "a" };
       pnew d9 { v = 2, w = "b" };
       dump;
       |}
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "failed: %s" e.msg);
  let script = Buffer.contents out in
  let db2 = Db.open_in_memory () in
  Ode.Dump.import db2 script;
  Tutil.check_int "reloaded extent" 2
    (Db.with_txn db2 (fun _ -> Ode.Query.count db2 ~var:"x" ~cls:"d9" ()));
  Db.close db;
  Db.close db2

let load_statement () =
  let dir = Tutil.temp_dir "load" in
  let script = Filename.concat dir "part.oql" in
  Out_channel.with_open_text script (fun oc ->
      Out_channel.output_string oc
        "class l5 { v: int; };\ncreate cluster l5;\npnew l5 { v = 11 };\n");
  let db = Db.open_in_memory () in
  let out = Buffer.create 32 in
  let shell = Shell.create ~print:(Buffer.add_string out) db in
  (match
     Shell.exec_catching shell
       (Printf.sprintf "load \"%s\";\nforall x in l5 { print x.v; };" script)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load failed: %s" e.msg);
  Tutil.check_string "loaded and queried" "11\n" (Buffer.contents out);
  (* Missing files are reported, not fatal. *)
  (match Shell.exec_catching shell "load \"/nonexistent/x.oql\";" with
  | Ok () -> Alcotest.fail "expected error"
  | Error _ -> ());
  Db.close db

let error_inside_explicit_txn_keeps_it_open () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:ignore db in
  (match Shell.exec_catching shell "class e9 { v: int; }; create cluster e9; begin; pnew e9 { v = 1 };" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup failed: %s" e.msg);
  (* A runtime error mid-transaction... *)
  (match Shell.exec_catching shell "print nosuchvar;" with
  | Ok () -> Alcotest.fail "expected an error"
  | Error _ -> ());
  (* ...leaves the transaction open; an explicit abort then works, and the
     pnew is gone. *)
  (match Shell.exec_catching shell "abort;" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "abort failed: %s" e.msg);
  Tutil.check_int "rolled back" 0
    (Db.with_txn db (fun _ -> Ode.Query.count db ~var:"x" ~cls:"e9" ()));
  Db.close db

(* A method that calls itself without end stops at the interpreter's
   depth bound with a user error, at once, instead of running until memory
   gives out. *)
let runaway_recursion_bounded () =
  let t0 = Unix.gettimeofday () in
  (match
     session
       "class r { v: int; method f(): int = this.f(); }; create cluster r; o := pnew r { v = 1 }; \
        print o.f();"
   with
  | Error { cls = User; msg }, _ ->
      Tutil.check_bool "names the depth bound" true
        (String.starts_with ~prefix:"method r.f: calls nested deeper than" msg)
  | Error e, _ -> Alcotest.failf "class %s: %s" (Ode_util.Ode_error.class_name e.cls) e.msg
  | Ok (), _ -> Alcotest.fail "runaway recursion returned");
  Tutil.check_bool "within a second" true (Unix.gettimeofday () -. t0 < 1.)

let suite =
  [
    ( "interp",
      [
        Alcotest.test_case "loop variable scoping" `Quick loop_var_scoping;
        Alcotest.test_case "nested foralls" `Quick nested_foralls;
        Alcotest.test_case "implicit this in methods" `Quick implicit_this_in_methods;
        Alcotest.test_case "implicit this in trigger actions" `Quick implicit_this_in_trigger_actions;
        Alcotest.test_case "method calling method" `Quick method_calling_method;
        Alcotest.test_case "deep field chains and null" `Quick deep_field_chains;
        Alcotest.test_case "list insert/remove" `Quick list_insert_remove;
        Alcotest.test_case "if without else" `Quick if_without_else;
        Alcotest.test_case "show stats" `Quick show_stats_runs;
        Alcotest.test_case "verify command" `Quick verify_command;
        Alcotest.test_case "dump command round-trips" `Quick dump_command_roundtrips;
        Alcotest.test_case "load statement" `Quick load_statement;
        Alcotest.test_case "error keeps explicit txn open" `Quick error_inside_explicit_txn_keeps_it_open;
        Alcotest.test_case "runaway recursion hits the depth bound" `Quick runaway_recursion_bounded;
      ] );
  ]
