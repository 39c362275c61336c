(* The paper's university example (§3): a class hierarchy with multiple
   inheritance, cluster-hierarchy ("deep extent") iteration, the dynamic
   [is] test, aggregates per class, constraint-based specialization (§5's
   [female : person] example), and a multi-variable join.

   Run with:  dune exec examples/university.exe *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let schema =
  {|
  class department { dname: string; budget: int; };
  class person {
    name: string;
    age: int;
    sex: string;
    method income(): int = 0;
  };
  // Constraint-based specialization, straight from the paper's §5.
  class female : person {
    constraint is_female: sex == "f";
  };
  class student : person {
    gpa: float;
    stipend: int;
    dept: ref department;
    method income(): int = stipend;
  };
  class faculty : person {
    salary: int;
    dept: ref department;
    method income(): int = salary;
  };
  |}

let () =
  let db = Db.open_in_memory () in
  ignore (Db.define db schema);
  List.iter (Db.create_cluster db) [ "department"; "person"; "female"; "student"; "faculty" ];
  Db.create_index db ~cls:"person" ~field:"age";

  Db.with_txn db (fun txn ->
      let cs = Db.pnew txn "department" [ ("dname", Str "cs"); ("budget", Int 100) ] in
      let math = Db.pnew txn "department" [ ("dname", Str "math"); ("budget", Int 60) ] in
      let person name age sex = ignore (Db.pnew txn "person" [ ("name", Str name); ("age", Int age); ("sex", Str sex) ]) in
      let student name age sex gpa stipend dept =
        ignore
          (Db.pnew txn "student"
             [ ("name", Str name); ("age", Int age); ("sex", Str sex);
               ("gpa", Float gpa); ("stipend", Int stipend); ("dept", Ref dept) ])
      in
      let faculty name age sex salary dept =
        ignore
          (Db.pnew txn "faculty"
             [ ("name", Str name); ("age", Int age); ("sex", Str sex);
               ("salary", Int salary); ("dept", Ref dept) ])
      in
      person "pat" 33 "m";
      person "quinn" 44 "f";
      student "ann" 22 "f" 3.9 1200 cs;
      student "bob" 27 "m" 2.8 1100 math;
      student "cleo" 24 "f" 3.4 1300 cs;
      faculty "dine" 51 "f" 9000 cs;
      faculty "emil" 47 "m" 8500 math);

  (* The paper's motivating query: average income of persons, students and
     faculty — one deep-extent loop with dynamic class tests. *)
  print_endline "== average income by dynamic class (paper §3.1.1) ==";
  Db.with_txn db (fun txn ->
      let sum_p = ref 0 and n_p = ref 0 in
      let sum_s = ref 0 and n_s = ref 0 in
      let sum_f = ref 0 and n_f = ref 0 in
      Query.run db ~txn ~var:"p" ~cls:"person" ~deep:true (fun oid ->
          let income = match Db.call txn oid "income" [] with Value.Int i -> i | _ -> 0 in
          incr n_p;
          sum_p := !sum_p + income;
          if Db.is_instance db oid "student" then begin
            incr n_s;
            sum_s := !sum_s + income
          end
          else if Db.is_instance db oid "faculty" then begin
            incr n_f;
            sum_f := !sum_f + income
          end);
      Printf.printf "persons:  n=%d avg income %.1f\n" !n_p (float !sum_p /. float !n_p);
      Printf.printf "students: n=%d avg income %.1f\n" !n_s (float !sum_s /. float !n_s);
      Printf.printf "faculty:  n=%d avg income %.1f\n" !n_f (float !sum_f /. float !n_f));

  print_endline "== suchthat + by through the shell ==";
  let shell = Ode.Shell.create db in
  Ode.Shell.exec shell
    {|
    print "adults over 30, oldest first:";
    forall p in person* suchthat p.age > 30 by p.age desc { print " ", p.name, p.age; };
    print "high-gpa students:";
    forall s in student suchthat s.gpa >= 3.4 by s.gpa desc { print " ", s.name, s.gpa; };
    |};

  print_endline "== join: who works/studies in which department ==";
  Db.with_txn db (fun txn ->
      Query.join2 db ~outer:("d", "department") ~inner:("m", "faculty")
        ~suchthat:(Parser.expr "m.dept == d")
        (fun d m ->
          Printf.printf "  %s teaches in %s\n"
            (Value.to_string (Db.get_field txn m "name"))
            (Value.to_string (Db.get_field txn d "dname"))));

  print_endline "== constraint-based specialization (paper §5) ==";
  (match
     Db.with_txn db (fun txn ->
         ignore (Db.pnew txn "female" [ ("name", Str "zed"); ("sex", Str "m") ]))
   with
  | () -> print_endline "  unexpectedly allowed"
  | exception Ode.Types.Constraint_violation { cname; _ } ->
      Printf.printf "  rejected male 'female' object (constraint %s)\n" cname);
  Db.with_txn db (fun txn ->
      ignore (Db.pnew txn "female" [ ("name", Str "freya"); ("sex", Str "f") ]);
      Printf.printf "  accepted conforming object; female extent size: %d\n"
        (Query.count db ~txn ~var:"x" ~cls:"female" ()));
  Db.close db
