(* Slow-query log: a process-global sink for requests that ran longer than
   the armed threshold. Two outputs per entry: a structured JSON line
   appended to a size-rotated log file (operator greps it, or tails it
   into a collector), and a bounded in-memory ring so `.slow [K]` can show
   the worst retained entries over the wire without touching the file.

   The entry JSON itself is assembled by the session layer (it holds the
   statement, trace id, queue-wait split and the query profile); this
   module only owns arming, retention and rotation. *)

type entry = { e_dur_ns : int; e_json : string }

let threshold = ref max_int (* ns; max_int = disarmed *)
let path : string option ref = ref None
let max_bytes = ref (8 * 1024 * 1024)
let ring : entry option array ref = ref (Array.make 128 None)
let head = ref 0
let oc : out_channel option ref = ref None

let armed () = !threshold <> max_int
let threshold_ns () = !threshold

let close_file () =
  (match !oc with Some c -> (try close_out c with _ -> ()) | None -> ());
  oc := None

let configure ?log_path ?(log_max_bytes = 8 * 1024 * 1024) ?(keep = 128) ~threshold_ms () =
  threshold := (if threshold_ms < 0 then max_int else threshold_ms * 1_000_000);
  path := log_path;
  max_bytes := max 4096 log_max_bytes;
  ring := Array.make (max 1 keep) None;
  head := 0;
  close_file ()

let disarm () =
  threshold := max_int;
  path := None;
  close_file ()

(* Single-generation rotation: when the live file exceeds the cap it is
   renamed to <path>.1 (replacing the previous generation) and a fresh
   file is opened. Bounded disk (2x cap), and the tail of history
   survives a scrape. *)
let rotate p =
  close_file ();
  (try Sys.rename p (p ^ ".1") with Sys_error _ -> ())

let out () =
  match !path with
  | None -> None
  | Some p -> (
      (match !oc with Some c when pos_out c > !max_bytes -> rotate p | _ -> ());
      match !oc with
      | Some c -> Some c
      | None ->
          (try
             let c = open_out_gen [ Open_append; Open_creat ] 0o644 p in
             oc := Some c
           with Sys_error _ -> ());
          !oc)

let record ~dur_ns json =
  let r = !ring in
  r.(!head) <- Some { e_dur_ns = dur_ns; e_json = json };
  head := (!head + 1) mod Array.length r;
  match out () with
  | Some c ->
      output_string c json;
      output_char c '\n';
      flush c
  | None -> ()

let retained () = Array.fold_left (fun n e -> match e with Some _ -> n + 1 | None -> n) 0 !ring

let worst k =
  Array.fold_left (fun acc e -> match e with Some e -> e :: acc | None -> acc) [] !ring
  |> List.sort (fun a b -> compare b.e_dur_ns a.e_dur_ns)
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun e -> e.e_json)
