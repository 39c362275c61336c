(* Span-based tracer: nested spans and instant events over the monotonic
   clock, recorded into a fixed-size ring buffer and exportable as Chrome
   trace-event JSON (load the dump in chrome://tracing or ui.perfetto.dev).

   Compiled into every build: each emit site costs one flag check when
   tracing is disabled (E18 guards that), and one clock read + ring store
   when enabled. Process-global, like Stats. *)

let enabled_flag = ref false
let enabled () = !enabled_flag

(* clock_gettime (CLOCK_MONOTONIC): nanosecond resolution, and never
   stepped back, so a span's duration is never negative. *)
external now_ns : unit -> int = "ode_monotonic_ns" [@@noalloc]

type phase = Complete | Instant

type span = {
  sp_id : int; (* unique per recorded span *)
  sp_trace : int; (* client-assigned trace id; 0 = untraced *)
  sp_name : string;
  sp_cat : string;
  sp_start_ns : int;
  sp_dur_ns : int; (* 0 for instants *)
  sp_depth : int; (* nesting depth at emission *)
  sp_args : (string * string) list;
  sp_phase : phase;
}

let next_span_id = ref 0

let fresh_span_id () =
  incr next_span_id;
  !next_span_id

(* The ambient trace id: a request executes from start to finish before
   the next one starts, so setting it around the request lets every span
   emitted below — session, query profiler, WAL commit — pick it up
   without threading a parameter through each layer. *)
let trace_id = ref 0
let current_trace_id () = !trace_id

let with_trace_id id f =
  let prev = !trace_id in
  trace_id := id;
  Fun.protect ~finally:(fun () -> trace_id := prev) f

let id_to_string id = Printf.sprintf "%012x" (id land max_int)

(* Cosmetic label for cross-process correlation: exported as the Chrome
   process_name metadata event, so a primary dump and a standby dump keep
   their roles apart when viewed together. *)
let process_label = ref ""
let set_process_label s = process_label := s

(* -- ring buffer of completed spans --------------------------------------- *)

(* The ring is allocated when tracing is first switched on, so a process
   that never traces carries none of it. [cap] is the configured size; the
   ring keeps its contents when tracing goes off, so spans recorded before
   can still be dumped. *)
let default_capacity = 65_536
let cap = ref default_capacity
let ring : span option array ref = ref [||]
let head = ref 0 (* next write position *)
let total = ref 0 (* spans ever recorded (wraparound overwrites oldest) *)

let capacity () = !cap

(* A fresh ring of the configured size. *)
let allocate () =
  ring := Array.make !cap None;
  head := 0;
  total := 0

let set_enabled b =
  if b && Array.length !ring <> !cap then allocate ();
  enabled_flag := b

let set_capacity n =
  cap := max 1 n;
  if !enabled_flag then allocate ()

let clear () =
  Array.fill !ring 0 (Array.length !ring) None;
  head := 0;
  total := 0

let record sp =
  let r = !ring in
  r.(!head) <- Some sp;
  head := (!head + 1) mod Array.length r;
  incr total

let total_recorded () = !total

(* Retained spans, oldest first (completion order). *)
let spans () =
  let r = !ring in
  let len = Array.length r in
  let n = min !total len in
  List.filter_map (fun i -> r.((((!head - n + i) mod len) + len) mod len)) (List.init n Fun.id)

(* -- emission -------------------------------------------------------------- *)

let depth = ref 0

let with_span ?(cat = "ode") ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let d = !depth in
    depth := d + 1;
    let t0 = now_ns () in
    let finish () =
      depth := d;
      record
        {
          sp_id = fresh_span_id ();
          sp_trace = current_trace_id ();
          sp_name = name;
          sp_cat = cat;
          sp_start_ns = t0;
          sp_dur_ns = now_ns () - t0;
          sp_depth = d;
          sp_args = args;
          sp_phase = Complete;
        }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let instant ?(cat = "ode") ?(args = []) name =
  if !enabled_flag then
    record
      {
        sp_id = fresh_span_id ();
        sp_trace = current_trace_id ();
        sp_name = name;
        sp_cat = cat;
        sp_start_ns = now_ns ();
        sp_dur_ns = 0;
        sp_depth = !depth;
        sp_args = args;
        sp_phase = Instant;
      }

let emit ?(cat = "ode") ?(args = []) ?(depth = 0) ~start_ns ~dur_ns name =
  if !enabled_flag then
    record
      {
        sp_id = fresh_span_id ();
        sp_trace = current_trace_id ();
        sp_name = name;
        sp_cat = cat;
        sp_start_ns = start_ns;
        sp_dur_ns = max 0 dur_ns;
        sp_depth = depth;
        sp_args = args;
        sp_phase = Complete;
      }

(* -- Chrome trace-event export --------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_json b pid sp =
  let us ns = float_of_int ns /. 1e3 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,\"tid\":1,\"ts\":%.3f"
       (json_escape sp.sp_name) (json_escape sp.sp_cat) pid (us sp.sp_start_ns));
  (match sp.sp_phase with
  | Complete -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"X\",\"dur\":%.3f" (us sp.sp_dur_ns))
  | Instant -> Buffer.add_string b ",\"ph\":\"i\",\"s\":\"t\"");
  let args =
    ("span_id", string_of_int sp.sp_id)
    :: (if sp.sp_trace <> 0 then [ ("trace_id", id_to_string sp.sp_trace) ] else [])
    @ sp.sp_args
  in
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    args;
  Buffer.add_string b "}}"

(* Real OS pid in the events (not the fixed 1 of earlier versions): a
   primary's dump and a standby's dump concatenate into one viewable
   trace with the processes kept apart, and trace_id args correlate the
   request's spans across them. *)
let to_chrome_json () =
  let b = Buffer.create 4096 in
  let pid = Unix.getpid () in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  if !process_label <> "" then begin
    first := false;
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
         pid (json_escape !process_label))
  end;
  List.iter
    (fun sp ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      event_json b pid sp)
    (spans ());
  Buffer.add_string b "]}\n";
  Buffer.contents b

let dump path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_chrome_json ()))
