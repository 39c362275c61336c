(* Shared helpers for the test suite. *)

let counter = ref 0

(* A fresh directory under the system temp dir; cleaned lazily by the OS. *)
let temp_dir prefix =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
  in
  if Sys.file_exists d then begin
    let rec rm path =
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    in
    rm d
  end;
  Sys.mkdir d 0o755;
  d

let copy_file src dst =
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc contents)

(* Snapshot a database directory as-is (simulating a crash: whatever the OS
   has is what survives). *)
let copy_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

(* [sub] occurs somewhere in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let qsuite name props = (name, List.map QCheck_alcotest.to_alcotest props)

(* Common alcotest checkers. *)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_string_list = Alcotest.(check (list string))

let value : Ode_model.Value.t Alcotest.testable =
  Alcotest.testable Ode_model.Value.pp Ode_model.Value.equal

let check_value = Alcotest.check value
let check_values = Alcotest.(check (list value))

(* A tiny schema used across many tests: the paper's university example. *)
let university_schema =
  {|
  class person {
    name: string;
    age: int;
    income: int;
    method describe(): string = "person " + name;
  };
  class student : person {
    gpa: float;
    constraint gpa_range: gpa >= 0.0 && gpa <= 4.0;
  };
  class faculty : person {
    salary: int;
    method describe(): string = "faculty " + name;
  };
  class ta : student, faculty { hours: int; };
  |}

let open_university () =
  let db = Ode.Database.open_in_memory () in
  ignore (Ode.Database.define db university_schema);
  Ode.Database.create_cluster db "person";
  Ode.Database.create_cluster db "student";
  Ode.Database.create_cluster db "faculty";
  Ode.Database.create_cluster db "ta";
  db
