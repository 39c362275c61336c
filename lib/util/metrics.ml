(* Renders the process's observability surface — Stats counters, sampled
   gauges, and Histogram quantiles — as Prometheus text exposition (served
   by the server's `GET /metrics` listener) and as a JSON document (the
   `.metrics json` dot command). Pure render layer: every value is read
   through the owning registry's accessors. *)

(* Prometheus metric names admit only [a-zA-Z0-9_]. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let metric_name name = "ode_" ^ sanitize name

(* -- Prometheus text format ------------------------------------------------ *)

let prometheus () =
  let b = Buffer.create 4096 in
  let snap = Stats.snapshot () in
  let counters =
    List.sort compare (Stats.to_list snap)
  in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      let ty = match Stats.kind_of name with Stats.Gauge -> "gauge" | Stats.Counter -> "counter" in
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n%s %d\n" m ty m v))
    counters;
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" m m v))
    (Stats.gauges ());
  List.iter
    (fun (r : Histogram.row) ->
      let m = metric_name r.r_name ^ Histogram.suffix r.r_measure in
      Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" m);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.5\"} %d\n" m r.r_p50);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.95\"} %d\n" m r.r_p95);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.99\"} %d\n" m r.r_p99);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" m r.r_sum_ns);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" m r.r_count))
    (Histogram.rows ());
  Buffer.contents b

(* -- JSON snapshot --------------------------------------------------------- *)

let json () =
  let b = Buffer.create 4096 in
  let obj_of pairs =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Trace.json_escape k) v) pairs)
  in
  let counters =
    List.sort compare (Stats.to_list (Stats.snapshot ()))
    |> List.map (fun (k, v) -> (k, string_of_int v))
  in
  let gauges = List.map (fun (k, v) -> (k, string_of_int v)) (Stats.gauges ()) in
  let hists =
    Histogram.rows ()
    |> List.map (fun (r : Histogram.row) ->
           let u = Histogram.suffix r.r_measure in
           ( r.r_name,
             Printf.sprintf "{%s}"
               (obj_of
                  [
                    ("count", string_of_int r.r_count);
                    ("sum" ^ u, string_of_int r.r_sum_ns);
                    ("max" ^ u, string_of_int r.r_max_ns);
                    ("p50" ^ u, string_of_int r.r_p50);
                    ("p95" ^ u, string_of_int r.r_p95);
                    ("p99" ^ u, string_of_int r.r_p99);
                  ]) ))
  in
  Buffer.add_string b
    (Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}" (obj_of counters)
       (obj_of gauges) (obj_of hists));
  Buffer.contents b
