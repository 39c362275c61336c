(* Timing and table rendering for the experiment harness. *)

let now () = Unix.gettimeofday ()

type measurement = {
  seconds : float;
  stats : Ode_util.Stats.snapshot; (* engine work performed during the run *)
}

let timed f =
  let s0 = Ode_util.Stats.snapshot () in
  let t0 = now () in
  let result = f () in
  let t1 = now () in
  let s1 = Ode_util.Stats.snapshot () in
  (result, { seconds = t1 -. t0; stats = Ode_util.Stats.diff s1 s0 })

let per_op m n = if n = 0 then 0.0 else m.seconds /. float n *. 1e6 (* µs/op *)
let ops_per_sec m n = if m.seconds <= 0.0 then 0.0 else float n /. m.seconds

(* -- tables ------------------------------------------------------------- *)

let hr width = String.make width '-'

let table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
         row)
  in
  let total_width = List.fold_left ( + ) (2 * (ncols - 1)) widths in
  Printf.printf "\n%s\n%s\n" title (hr (max total_width (String.length title)));
  Printf.printf "%s\n%s\n" (render_row header) (hr total_width);
  List.iter (fun r -> Printf.printf "%s\n" (render_row r)) rows;
  flush stdout

let fsec s = if s < 0.001 then Printf.sprintf "%.1fµs" (s *. 1e6)
             else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
             else Printf.sprintf "%.2fs" s

let fops v =
  if v >= 1e6 then Printf.sprintf "%.2fM/s" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk/s" (v /. 1e3)
  else Printf.sprintf "%.0f/s" v

let fint = string_of_int
let ffloat f = Printf.sprintf "%.2f" f

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt
let section title = Printf.printf "\n================ %s ================\n" title

(* -- scaling, metrics, guards ------------------------------------------- *)

(* BENCH_SCALE shrinks (or grows) every experiment's N — the CI smoke job
   runs the suite at 0.1 so it finishes in seconds while still exercising
   the same code paths and guards. *)
let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> ( try float_of_string s with _ -> 1.0)
  | None -> 1.0

let scaled n = max 1 (int_of_float (float n *. scale))

(* Named scalar results, accumulated across experiments and dumped as JSON
   with --json FILE. *)
let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* The Stats diff of an experiment, one metric per nonzero counter, so
   --json output records engine work (pages, probes, syncs, ...) and not
   just wall time. Counters the experiment never bumped are left out. *)
let stats_metrics prefix s =
  List.iter
    (fun (name, v) ->
      if v <> 0 then metric (Printf.sprintf "%s.stats.%s" prefix name) (float_of_int v))
    (Ode_util.Stats.to_list s)

let guard_failures : string list ref = ref []

(* A guarded metric: outside [lo, hi] the run still completes (every table
   prints) but the process exits nonzero, failing the bench job. *)
let guard name ?lo ?hi v =
  metric name v;
  let bad_lo = match lo with Some l -> v < l | None -> false in
  let bad_hi = match hi with Some h -> v > h | None -> false in
  let bounds =
    Printf.sprintf "[%s, %s]"
      (match lo with Some l -> Printf.sprintf "%.2f" l | None -> "-inf")
      (match hi with Some h -> Printf.sprintf "%.2f" h | None -> "+inf")
  in
  if bad_lo || bad_hi then begin
    guard_failures := name :: !guard_failures;
    note "GUARD FAIL: %s = %.3f outside %s" name v bounds
  end
  else note "guard ok: %s = %.3f within %s" name v bounds

let write_json path =
  let oc = open_out path in
  let finite v = match Float.classify_float v with FP_nan | FP_infinite -> false | _ -> true in
  output_string oc "{\n";
  let items = List.rev !metrics in
  let last = List.length items - 1 in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  %S: %s%s\n" k
        (if finite v then Printf.sprintf "%.6f" v else "null")
        (if i = last then "" else ","))
    items;
  output_string oc "}\n";
  close_out oc
