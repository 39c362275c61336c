(* Seeded fuzz over statement text. Each case takes one of the example
   scripts under examples/scripts, applies one or two mutations (delete,
   duplicate or swap tokens or whole top-level statements, or change a
   literal) and runs the result through [Shell.exec_catching] on a fresh
   in-memory store. Nothing may escape, and no error may have class
   [Internal]: a mistake in a program, a lost conflict or a resource limit
   must never read as an engine bug.

   FUZZ_SEED (default 11) picks the mutations; FUZZ_COUNT (default 2000,
   about two seconds) sets the number of programs. *)

module Lexer = Ode_lang.Lexer
module Err = Ode_util.Ode_error

let seed = match Sys.getenv_opt "FUZZ_SEED" with Some s -> int_of_string s | None -> 11
let count = match Sys.getenv_opt "FUZZ_COUNT" with Some s -> int_of_string s | None -> 2000

(* The example scripts, tokenized: found from the test directory under
   [dune runtest], from the root under [dune exec]. *)
let scripts () =
  let dir =
    match List.find_opt Sys.file_exists [ "../examples/scripts"; "examples/scripts" ] with
    | Some dir -> dir
    | None -> Alcotest.fail "no examples/scripts directory"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".oql")
  |> List.sort compare
  |> List.map (fun f ->
         let src = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
         (f, Array.of_list (List.map fst (List.filter (fun (t, _) -> t <> Lexer.EOF) (Lexer.tokenize src)))))

let render = function
  | Lexer.IDENT s | KW s | PUNCT s -> s
  | INT n -> string_of_int n
  | FLOAT f -> Printf.sprintf "%.17g" f
  | STRING s -> Printf.sprintf "%S" s
  | EOF -> ""

let pick rs a = a.(Random.State.int rs (Array.length a))

let literal rs = function
  | Lexer.INT _ -> Some (Lexer.INT (pick rs [| 0; 1; -1; 7; 1000; max_int; min_int |]))
  | FLOAT _ -> Some (FLOAT (pick rs [| 0.; -1.5; 1e300; Float.nan |]))
  | STRING _ -> Some (STRING (pick rs [| ""; "x"; "ada"; "\"" |]))
  | KW "true" -> Some (KW "false")
  | KW "false" -> Some (KW "true")
  | _ -> None

(* The top-level statements of [toks]: runs of tokens ending at a [;]
   outside braces. *)
let statements toks =
  let stmts = ref [] and cur = ref [] and depth = ref 0 in
  Array.iter
    (fun t ->
      cur := t :: !cur;
      match t with
      | Lexer.PUNCT "{" -> incr depth
      | PUNCT "}" -> decr depth
      | PUNCT ";" when !depth = 0 ->
          stmts := List.rev !cur :: !stmts;
          cur := []
      | _ -> ())
    toks;
  Array.of_list (List.rev (if !cur = [] then !stmts else List.rev !cur :: !stmts))

(* Delete or duplicate an element of [a], or swap two. *)
let edit rs a =
  let n = Array.length a in
  let i = Random.State.int rs n in
  let l = Array.to_list a in
  match Random.State.int rs 3 with
  | 0 -> Array.of_list (List.filteri (fun k _ -> k <> i) l)
  | 1 -> Array.of_list (List.concat (List.mapi (fun k t -> if k = i then [ t; t ] else [ t ]) l))
  | _ ->
      let j = Random.State.int rs n and a' = Array.copy a in
      a'.(i) <- a.(j);
      a'.(j) <- a.(i);
      a'

let change_literal rs toks =
  let n = Array.length toks in
  (* The first literal at or after a random token, wrapping around. *)
  let rec find k tries =
    if tries = n then None
    else match literal rs toks.(k) with Some t -> Some (k, t) | None -> find ((k + 1) mod n) (tries + 1)
  in
  match find (Random.State.int rs n) 0 with
  | Some (k, t) ->
      let a = Array.copy toks in
      a.(k) <- t;
      a
  | None -> toks

let mutate rs toks =
  if Array.length toks = 0 then toks
  else
    match Random.State.int rs 3 with
    | 0 -> edit rs toks
    | 1 -> Array.concat (Array.to_list (edit rs (statements toks)) |> List.map Array.of_list)
    | _ -> change_literal rs toks

let program rs scripts =
  let name, toks = pick rs scripts in
  let toks = ref toks in
  for _ = 0 to Random.State.int rs 2 do
    toks := mutate rs !toks
  done;
  (name, String.concat " " (Array.to_list (Array.map render !toks)))

let run src =
  let db = Ode.Database.open_in_memory () in
  Fun.protect ~finally:(fun () -> Ode.Database.close db) @@ fun () ->
  Ode.Shell.exec_catching (Ode.Shell.create ~print:ignore db) src

let fuzz () =
  let scripts = Array.of_list (scripts ()) in
  if scripts = [||] then Alcotest.fail "no example scripts";
  let rs = Random.State.make [| seed |] in
  let user_errors = ref 0 in
  for case = 1 to count do
    let name, src = program rs scripts in
    let fail what = Alcotest.failf "case %d (seed %d, from %s): %s\n%s" case seed name what src in
    match run src with
    | Ok () -> ()
    | Error { Err.cls = Internal; msg } -> fail msg
    | Error { cls = User; _ } -> incr user_errors
    | Error _ -> ()
    | exception e -> fail ("escaped: " ^ Printexc.to_string e)
  done;
  if !user_errors = 0 then Alcotest.failf "no user error in %d cases (seed %d)" count seed

let suite = [ ("error_fuzz", [ Alcotest.test_case "no internal errors" `Quick fuzz ]) ]
