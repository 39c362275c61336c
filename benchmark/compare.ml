(* odebench compare A.json B.json: two sets of runs of the same workloads
   (from [run --repeat N --json]), A the baseline. For every workload and
   end-to-end metric of the manifest it prints each side's median and
   quartiles, the relative change of the medians, and a verdict: [within]
   the metric's bound, [better] or [worse] by more than it, or
   [unresolved] when either side's spread (quartile distance over median)
   is wider than the bound, unless every run of B beats every run of A.
   Per-layer metrics the runs recorded follow, with no verdict: they have
   no bound. *)

let min_runs = 5

(* The workloads in first-seen order, and workload * metric -> values over
   the correct runs of one result file. *)
let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let runs = Json.to_list (Json.member_exn "runs" (Json.parse text)) in
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun r ->
      let w = Json.to_string_exn (Json.member_exn "workload" r) in
      if not (List.mem w !order) then order := w :: !order;
      if Json.member "correct" r = Some (Json.Bool true) then
        match Json.member_exn "metrics" r with
        | Obj ms ->
            List.iter
              (fun (name, m) ->
                let v = Json.to_float (Json.member_exn "value" m) in
                let seen = Option.value ~default:[] (Hashtbl.find_opt tbl (w, name)) in
                Hashtbl.replace tbl (w, name) (v :: seen))
              ms
        | _ -> ())
    runs;
  (List.rev !order, fun w name -> Option.value ~default:[] (Hashtbl.find_opt tbl (w, name)))

let spread l = match Measure.quartiles l with [ q1; m; q3 ] -> (q3 -. q1) /. m | _ -> nan

let verdict ~better ~bound a b =
  let median l = List.nth (Measure.quartiles l) 1 in
  let ma = median a and mb = median b in
  let change = (mb -. ma) /. ma in
  let improves x y = if better = "higher" then x > y else x < y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> improves y x) a) b in
  if all_better && Float.abs change > bound then "better"
  else if Float.max (spread a) (spread b) > bound then "unresolved"
  else if Float.abs change <= bound then "within"
  else if improves mb ma then "better"
  else "worse"

let row w name unit va vb verdict =
  let qa = Measure.quartiles va and qb = Measure.quartiles vb in
  let q l = Printf.sprintf "[%.4g, %.4g]" (List.nth l 0) (List.nth l 2) in
  let ma = List.nth qa 1 and mb = List.nth qb 1 in
  Printf.printf "%-16s %-32s %-7s %10.4g %21s %10.4g %21s %+7.1f%%  %s\n" w name unit ma (q qa) mb
    (q qb)
    (100. *. (mb -. ma) /. ma)
    verdict

(* Exits 1 on any [worse] or [unresolved] verdict or too few runs. *)
let run ~e2e ~layer a_path b_path =
  let workloads, a = load a_path and _, b = load b_path in
  let bad = ref 0 in
  Printf.printf "%-16s %-32s %-7s %10s %21s %10s %21s %8s  %s\n" "workload" "metric" "unit"
    "A median" "A quartiles" "B median" "B quartiles" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit, better, bound) ->
          let va = a w name and vb = b w name in
          if List.length va < min_runs || List.length vb < min_runs then begin
            incr bad;
            Printf.printf "%-16s %-32s needs %d correct runs a side (A %d, B %d)\n" w name min_runs
              (List.length va) (List.length vb)
          end
          else begin
            let v = verdict ~better ~bound va vb in
            if v = "worse" || v = "unresolved" then incr bad;
            row w name unit va vb (Printf.sprintf "%s (bound %g)" v bound)
          end)
        e2e)
    workloads;
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit, _, _) ->
          let va = a w name and vb = b w name in
          let median l = List.nth (Measure.quartiles l) 1 in
          if List.length va >= 2 && List.length vb >= 2 && median va <> 0. then
            row w name unit va vb "per-layer")
        layer)
    workloads;
  if !bad = 0 then 0 else 1
