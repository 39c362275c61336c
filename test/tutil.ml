(* Shared helpers for the test suite. *)

let counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Every directory [temp_dir] handed out, with the process that made it,
   which alone removes it at exit: suites fork servers and crash victims,
   whose exits must not take a directory from under the parent. *)
let made = ref []

let () =
  at_exit (fun () ->
      let me = Unix.getpid () in
      List.iter
        (fun (pid, d) -> if pid = me then try if Sys.file_exists d then rm_rf d with Sys_error _ -> ())
        !made)

(* A fresh directory under the system temp dir, gone when the test run
   exits. *)
let temp_dir prefix =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
  in
  if Sys.file_exists d then rm_rf d;
  Sys.mkdir d 0o755;
  made := (Unix.getpid (), d) :: !made;
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

(* Words [f] allocates: minor words, read with [Gc.minor_words] because
   [Gc.counters] leaves out the current minor heap on OCaml 5.1, plus the
   words allocated directly in the major heap (a large array goes there). *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* Inverts the byte at [off] of the file at [path]. *)
let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write")

(* Fails the test with every problem [Verify.run] finds in [db]. *)
let verified db =
  match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "integrity check failed:\n  %s" (String.concat "\n  " ps)

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

(* -- values by declared type ---------------------------------------------- *)

(* Naturals across the whole non-negative range: mostly small, as the
   engine allocates them, and up to max_int, 2^32 included. *)
let nat_gen =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 200);
        (2, int_bound 100_000);
        (2, map (fun n -> n land max_int) int);
        (1, oneofl [ (1 lsl 32) - 1; 1 lsl 32; max_int ]);
      ])

(* Every shape a field or parameter of type [t] may hold: an [Int] in a
   float field, null refs and vrefs, the int extremes, strings past a
   one-byte length, and class ids, numbers and versions across [nat_gen]. *)
let rec value_of_type_gen (t : Ode_model.Otype.t) =
  let open QCheck.Gen in
  let module V = Ode_model.Value in
  let int_gen = frequency [ (3, int); (3, small_signed_int); (1, oneofl [ min_int; max_int ]) ] in
  let oid_gen = map2 (fun cls num -> { Ode_model.Oid.cls; num }) nat_gen nat_gen in
  match t with
  | TInt -> map (fun n -> V.Int n) int_gen
  | TBool -> map (fun b -> V.Bool b) bool
  | TString ->
      map
        (fun s -> V.Str s)
        (string_size ~gen:(oneofl [ '\000'; 'a'; '\255' ]) (frequency [ (4, 0 -- 6); (1, 120 -- 300) ]))
  | TFloat -> oneof [ map (fun f -> V.Float f) float; map (fun n -> V.Int n) int_gen ]
  | TRef _ ->
      oneof
        [
          return V.Null;
          map (fun o -> V.Ref o) oid_gen;
          map2 (fun oid ver -> V.Vref { oid; ver }) oid_gen nat_gen;
        ]
  | TSet t -> map V.set_of_list (list_size (0 -- 3) (value_of_type_gen t))
  | TList t -> map (fun vs -> V.VList vs) (list_size (0 -- 3) (value_of_type_gen t))
