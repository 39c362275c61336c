(* odebench: the reference benchmark. One seeded command runs the four
   workloads against the engine's public interfaces, checks every result
   against the generator's oracle, and reports the end-to-end and per-layer
   metrics that BENCHMARK.json names. See benchmark/README.md. [run] exits
   with the number of runs that failed. *)

let workloads =
  [
    ("query-hot", Query_hot.run);
    ("serve-read-cold", Serve_read_cold.run);
    ("serve-mixed", Serve_mixed.run);
    ("write-recover", Write_recover.run);
  ]

(* The metric lists of BENCHMARK.json, in the current directory:
   (name, unit, better, bound). *)
type metric_spec = string * string * string * float
type manifest = { e2e : metric_spec list; layer : metric_spec list }

let read_manifest () =
  let j = Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let metrics key =
    List.map
      (fun m ->
        ( Json.to_string_exn (Json.member_exn "name" m),
          Json.to_string_exn (Json.member_exn "unit" m),
          (match Json.member "better" m with Some b -> Json.to_string_exn b | None -> "lower"),
          match Json.member "bound" m with Some b -> Json.to_float b | None -> 0. ))
      (Json.to_list (Json.member_exn key j))
  in
  { e2e = metrics "end_to_end"; layer = metrics "per_layer" }

let metric_json (m : Ctx.metric) =
  Json.Obj
    ([ ("value", Json.Num m.value); ("unit", Str m.unit) ]
    @ match m.n with Some n -> [ ("n", Num (float_of_int n)) ] | None -> [])

let run_json (t : Ctx.t) ~repeat =
  Json.Obj
    [
      ("workload", Str t.workload);
      ("repeat", Num (float_of_int repeat));
      ("seed", Num (float_of_int t.seed));
      ("traced", Bool t.traced);
      ("correct", Bool (t.failed = 0));
      ("attempted", Num (float_of_int t.attempted));
      ("failed", Num (float_of_int t.failed));
      ("errors", Arr (List.rev_map (fun e -> Json.Str e) t.errors));
      ("elapsed_s", Num t.elapsed_s);
      ("samples", Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) t.kinds));
      ("metrics", Obj (List.rev_map (fun (m : Ctx.metric) -> (m.name, metric_json m)) t.metrics));
    ]

(* Print every metric as "workload metric value unit [n=samples]", then the
   one-line summary whose metrics are the manifest's end-to-end list (or,
   traced, its per-layer list). A listed metric the run did not produce is
   a failure. *)
let report manifest (t : Ctx.t) =
  List.iter
    (fun (m : Ctx.metric) ->
      Printf.printf "%s %s %s %s%s\n" t.workload m.name (Json.number m.value) m.unit
        (match m.n with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    (List.rev t.metrics);
  let wanted = if t.traced then manifest.layer else manifest.e2e in
  let listed =
    List.filter_map
      (fun (name, unit, _, _) ->
        match Ctx.find t name with
        | Some m -> Some (name, Json.Obj [ ("value", Num m.value); ("unit", Str unit) ])
        | None ->
            Ctx.fail t "metric %s was not produced" name;
            None)
      wanted
  in
  print_endline
    (Json.to_string
       (Obj
          [
            ("correct", Bool (t.failed = 0));
            ("attempted", Num (float_of_int t.attempted));
            ("failed", Num (float_of_int t.failed));
            ("metrics", Obj listed);
          ]))

(* Stores and traces go here, under the directory the command runs in. *)
let workdir = ".odebench"

let stamp ~seed ~scale ~seconds ~traced ~repeat =
  Json.Obj
    [
      ("nproc", Num (float_of_int (Host.nproc ())));
      ("ocaml", Str Sys.ocaml_version);
      ("commit", Str (Host.git_commit ()));
      ("fs", Str (Host.fs_type workdir));
      ("seed", Num (float_of_int seed));
      ("scale", Num scale);
      ("seconds", Num seconds);
      ("traced", Bool traced);
      ("repeat", Num (float_of_int repeat));
    ]

(* One run of one workload, in this process. *)
let run_one manifest ~name ~seed ~seconds ~scale ~traced ~corrupt =
  let dir = Filename.concat workdir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Host.rm_rf dir;
  Host.mkdir_p dir;
  let t =
    Ctx.create ~workload:name ~seed ~scale ~seconds ~traced ~corrupt ~dir
      ~server:(Filename.concat (Filename.dirname Sys.executable_name) "../bin/ode_server.exe")
      ~trace_file:(Filename.concat workdir ("trace." ^ name ^ ".json"))
  in
  Ctx.log "%s seed %d%s" name seed (if traced then " (traced)" else "");
  (try (List.assoc name workloads) t
   with e -> Ctx.fail t "%s aborted: %s" name (Printexc.to_string e));
  Host.rm_rf dir;
  Ctx.metric t ~n:t.attempted "failed_frac" "ratio" (Ctx.ratio t.failed t.attempted);
  report manifest t;
  List.iter (fun e -> Ctx.log "%s FAILED: %s" name e) (List.rev t.errors);
  t

let write_json path ~stamp runs =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Obj [ ("stamp", stamp); ("runs", Arr runs) ]));
      output_char oc '\n')

(* Each of several runs goes to a child process of its own, so that what
   is measured per process (peak RSS, the collector's heap) belongs to one
   run. Returns the child's result and whether it failed. *)
let run_child ~name ~seed ~seconds ~scale ~traced ~corrupt ~repeat =
  let out =
    Filename.concat workdir (Printf.sprintf "run-%d-%d-%s.json" (Unix.getpid ()) repeat name)
  in
  let argv =
    [ Sys.executable_name; "run"; "--workload"; name; "--seed"; string_of_int seed;
      "--seconds"; string_of_float seconds; "--scale"; string_of_float scale;
      "--trace"; (if traced then "1" else "0"); "--json"; out ]
    @ if corrupt then [ "--corrupt-oracle" ] else []
  in
  flush stdout;
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let run =
    match Json.parse (In_channel.with_open_bin out In_channel.input_all) with
    | j -> (
        Host.rm_rf out;
        match Json.to_list (Json.member_exn "runs" j) with
        | [ Json.Obj fields ] ->
            let fields = List.remove_assoc "repeat" fields in
            Some (Json.Obj (("repeat", Num (float_of_int repeat)) :: fields))
        | _ -> None)
    | exception (Sys_error _ | Json.Bad _) -> None
  in
  (run, status <> WEXITED 0 || run = None)

let run names seed seconds scale trace repeat json corrupt =
  if trace <> 0 && trace <> 1 then failwith "--trace takes 0 or 1";
  let traced = trace = 1 in
  let manifest = read_manifest () in
  let names = if names = [] then List.map fst workloads else names in
  List.iter
    (fun n -> if not (List.mem_assoc n workloads) then failwith ("unknown workload " ^ n))
    names;
  Host.mkdir_p workdir;
  let stamp = stamp ~seed ~scale ~seconds ~traced ~repeat in
  match (names, repeat) with
  | [ name ], 1 ->
      let t = run_one manifest ~name ~seed ~seconds ~scale ~traced ~corrupt in
      Option.iter (fun path -> write_json path ~stamp [ run_json t ~repeat:0 ]) json;
      if t.failed = 0 then 0 else 1
  | _ ->
      let results = ref [] and failed_runs = ref 0 in
      for r = 0 to repeat - 1 do
        (* Alternate the workload order between repeats, so no workload
           always runs first on a cold machine. *)
        List.iter
          (fun name ->
            let run, failed =
              run_child ~name ~seed:(seed + r) ~seconds ~scale ~traced ~corrupt ~repeat:r
            in
            Option.iter (fun j -> results := j :: !results) run;
            if failed then incr failed_runs)
          (if r mod 2 = 0 then names else List.rev names)
      done;
      Option.iter (fun path -> write_json path ~stamp (List.rev !results)) json;
      min 125 !failed_runs

open Cmdliner

let run_cmd =
  let opt kind v0 flags docv doc = Arg.(value & opt kind v0 & info flags ~docv ~doc) in
  let workload =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"NAME" ~doc:"Run this workload (repeatable; default all four).")
  in
  let seed = opt Arg.int 1 [ "seed" ] "N" "Seed every input is generated from." in
  let seconds =
    opt Arg.float 15. [ "seconds" ] "S"
      "Size each workload's seed-determined operation sequence to last about S seconds on the \
       reference host (its first 5% warms up unmeasured)."
  in
  let scale = opt Arg.float 1. [ "scale" ] "X" "Multiply data sizes and sequence lengths by X." in
  let trace =
    opt Arg.int 0 [ "trace" ] "0|1"
      "1: the traced run. Record spans, report the per-layer metrics, write \
       .odebench/trace.WORKLOAD.json."
  in
  let repeat =
    opt Arg.int 1 [ "repeat" ] "N"
      "Run the workloads N times, with seeds SEED to SEED+N-1, alternating their order."
  in
  let json = opt Arg.(some string) None [ "json" ] "FILE" "Also write every result to FILE." in
  let corrupt =
    Arg.(
      value & flag
      & info [ "corrupt-oracle" ] ~doc:"Perturb one oracle value per workload; each run must fail.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"run the workloads")
    Term.(const run $ workload $ seed $ seconds $ scale $ trace $ repeat $ json $ corrupt)

let compare_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "compare" ~doc:"compare two sets of at least 5 runs (from run --repeat N --json)")
    Term.(
      const (fun a b ->
          let m = read_manifest () in
          Compare.run ~e2e:m.e2e ~layer:m.layer a b) $ file 0 "A.json" $ file 1 "B.json")

let () =
  let info = Cmd.info "odebench" ~doc:"reference benchmark for the ODE engine" in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; compare_cmd ]))
