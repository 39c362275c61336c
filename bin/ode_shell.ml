(* The ODE shell: an interactive (or scripted) interpreter for the O++-like
   surface language.

     ode_shell mydb                 # REPL against the database in ./mydb
     ode_shell --memory             # throwaway in-memory database
     ode_shell mydb -f script.oql   # run a script, then exit
     ode_shell mydb -e 'show classes;'
     ode_shell --connect localhost:7764   # remote session via ode_server

   Input is accumulated until it parses (so multi-line class declarations
   work); an empty line forces an error report instead of more input. In
   --connect mode every complete program is shipped to the server over the
   wire protocol; dot commands run remotely except [.quit] and [.read FILE],
   which the REPL resolves locally (the file is read on this machine) so
   scripts behave identically in both modes. *)

let banner =
  "ODE shell — O++ data model on OCaml. Statements end with ';'.\n\
   Try: class point { x: int; y: int; };  create cluster point;\n\
   \     p := pnew point { x = 1, y = 2 };  forall q in point { print q.x; };\n\
   Dot commands: .help .stats .recovery .metrics .trace .explain .profile\n\
   \              .durability .sync .read .quit\n"

(* What one REPL turn needs from either backend: run a dot line (true =
   keep going, false = quit), and run a parsed-complete program, printing
   its output. *)
type driver = { run_dot : string -> bool; run : string -> (unit, Ode_util.Ode_error.t) result }

let print_unless_empty out = if out <> "" then print_endline out

(* A program run from the REPL reports its error and the session goes on. *)
let run_program run source =
  match run source with Ok () -> () | Error (e : Ode_util.Ode_error.t) -> Printf.printf "error: %s\n" e.msg

let local_driver shell =
  {
    run_dot =
      (fun line ->
        (match Ode.Shell.dot_command shell line with
        | Some out -> print_unless_empty out
        | None -> ());
        not (Ode.Shell.wants_quit shell));
    run = Ode.Shell.exec_catching shell;
  }

let remote_run client source =
  match Ode_served.Client.exec client source with
  | out -> Ok (print_string out)
  | exception Ode_served.Client.Server_error e -> Error e

let remote_driver client =
  {
    run_dot =
      (fun line ->
        let cmd, rest =
          match String.index_opt line ' ' with
          | None -> (line, "")
          | Some i ->
              (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
        in
        match cmd with
        | ".quit" -> false
        | ".read" when rest <> "" -> (
            match In_channel.with_open_text rest In_channel.input_all with
            | source ->
                run_program (remote_run client) source;
                true
            | exception Sys_error msg ->
                Printf.printf "error: read: %s\n" msg;
                true)
        | _ ->
            (match Ode_served.Client.dot client line with
            | out -> print_unless_empty out
            | exception Ode_served.Client.Server_error e -> Printf.printf "error: %s\n" e.msg);
            true);
    run = remote_run client;
  }

let run_repl driver =
  print_string banner;
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "ode> " else "...> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> print_newline ()
    | Some line
      when Buffer.length buf = 0
           && String.length (String.trim line) > 0
           && (String.trim line).[0] = '.' ->
        let keep_going = driver.run_dot (String.trim line) in
        flush stdout;
        if keep_going then loop ()
    | Some line ->
        let force = String.trim line = "" in
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let source = Buffer.contents buf in
        let complete =
          (not force)
          &&
          match Ode_lang.Parser.program source with
          | _ -> true
          | exception Ode_lang.Parser.Parse_error (_, { offset; _ })
            when offset >= String.length (String.trim source) ->
              false (* likely just incomplete input: keep reading *)
          | exception _ -> true
        in
        if complete || force then begin
          Buffer.clear buf;
          run_program driver.run source;
          flush stdout
        end;
        loop ()
  in
  loop ()

(* Drive a session (REPL, -f script, or -e source) over [driver]; returns
   the process exit code. A script or -e source that fails exits 3 for an
   error of class [Corrupt], as when the store cannot be opened for it,
   and 1 for any other. *)
let drive driver file expr =
  let run_checked source =
    match driver.run source with
    | Ok () -> 0
    | Error e ->
        Printf.eprintf "error: %s\n" e.msg;
        if e.cls = Corrupt then 3 else 1
  in
  match (file, expr) with
  | Some path, _ -> (
      match In_channel.with_open_text path In_channel.input_all with
      | source -> run_checked source
      | exception Sys_error msg ->
          Printf.eprintf "ode_shell: cannot read %s\n" msg;
          2)
  | None, Some src -> run_checked src
  | None, None ->
      run_repl driver;
      0

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> ("127.0.0.1", int_of_string s)
  | Some i ->
      let host = String.sub s 0 i in
      let host = if host = "" || host = "localhost" then "127.0.0.1" else host in
      (host, int_of_string (String.sub s (i + 1) (String.length s - i - 1)))

let main memory file expr connect dir =
  match connect with
  | Some target -> (
      let host, port =
        try parse_host_port target
        with _ ->
          Printf.eprintf "ode_shell: --connect expects HOST:PORT, got %s\n" target;
          exit 2
      in
      match Ode_served.Client.connect ~host ~port () with
      | exception Ode_served.Client.Rejected msg ->
          Printf.eprintf "ode_shell: %s:%d rejected us: %s\n" host port msg;
          exit 1
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "ode_shell: cannot reach %s:%d: %s\n" host port (Unix.error_message e);
          exit 1
      | client ->
          let code = drive (remote_driver client) file expr in
          Ode_served.Client.close client;
          exit code)
  | None ->
      let db =
        if memory then Ode.Database.open_in_memory ()
        else
          match dir with
          | Some d -> (
              try Ode.Database.open_ d
              with e -> (
                match Ode.Shell.classify e with
                | { cls = Corrupt; msg } ->
                    Printf.eprintf "ode_shell: %s is corrupt: %s\n" d msg;
                    exit 3
                | { msg; _ } ->
                    (* A [Sys_error] about the directory itself names it
                       already; say the path once. *)
                    let prefix = d ^ ": " in
                    let msg =
                      if String.starts_with ~prefix msg then
                        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
                      else msg
                    in
                    Printf.eprintf "ode_shell: cannot open %s: %s\n" d msg;
                    exit 2))
          | None ->
              prerr_endline "ode_shell: need a database directory (or --memory, or --connect)";
              exit 2
      in
      let code = drive (local_driver (Ode.Shell.create db)) file expr in
      Ode.Database.close db;
      exit code

open Cmdliner

let memory =
  Arg.(value & flag & info [ "memory"; "m" ] ~doc:"Use a throwaway in-memory database.")

let file =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc:"Execute a script file and exit.")

let expr =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "exec" ] ~docv:"SOURCE" ~doc:"Execute the given source and exit.")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Proxy the session to a running ode_server instead of opening a database.")

let dir = Arg.(value & pos 0 (some string) None & info [] ~docv:"DBDIR")

let cmd =
  let doc = "interactive shell for the ODE object database" in
  Cmd.v (Cmd.info "ode_shell" ~doc) Term.(const main $ memory $ file $ expr $ connect $ dir)

let () = exit (Cmd.eval cmd)
