(** Span-based tracer with a fixed-size ring buffer and a Chrome
    trace-event JSON exporter. Disabled by default; every emit point is a
    single flag check when off, and no ring exists until tracing is first
    switched on. Process-global, emitted and read on the one domain that
    runs the engine. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Switching tracing on allocates the ring at {!capacity} slots (8 bytes
    each) unless one of that size exists already, which it keeps with its
    spans. Switching it off keeps the ring, so the spans recorded so far
    can still be read and dumped. *)

external now_ns : unit -> int = "ode_monotonic_ns" [@@noalloc]
(** The monotonic clock ([CLOCK_MONOTONIC]) in integer nanoseconds: it
    never decreases, so durations are never negative, and it resolves
    single nanoseconds. Its origin is arbitrary (boot, on Linux), so a
    reading is not a time of day. *)

type phase = Complete | Instant

type span = {
  sp_id : int;  (** unique per recorded span, increasing in recording order *)
  sp_trace : int;  (** ambient trace id at emission; 0 = untraced *)
  sp_name : string;
  sp_cat : string;
  sp_start_ns : int;
  sp_dur_ns : int;  (** 0 for instants *)
  sp_depth : int;  (** nesting depth at emission *)
  sp_args : (string * string) list;
  sp_phase : phase;
}

val with_trace_id : int -> (unit -> 'a) -> 'a
(** Run a thunk with the ambient trace id set (restored on exit, also on
    exceptions). Every span recorded inside, however far down the stack,
    carries the id in [sp_trace] and exports it as a [trace_id] arg. Id 0
    means untraced. *)

val current_trace_id : unit -> int
(** The ambient trace id (0 when none). *)

val id_to_string : int -> string
(** Canonical rendering of a trace id (fixed-width hex), used everywhere a
    trace id is shown so greps line up across client, server and logs. *)

val set_process_label : string -> unit
(** Label this process in Chrome exports (a [process_name] metadata
    event): e.g. ["primary:7070"] vs ["standby:7071"], so dumps from both
    sides of a replication pair stay tellable apart when concatenated. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span is recorded when [f]
    returns or raises. No-op (beyond calling [f]) when tracing is off. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Zero-duration event at the current time. *)

val emit :
  ?cat:string ->
  ?args:(string * string) list ->
  ?depth:int ->
  start_ns:int ->
  dur_ns:int ->
  string ->
  unit
(** Record a pre-timed span (used by the query profiler to lay out per-node
    aggregates). *)

val capacity : unit -> int
(** The configured ring size, whether or not the ring exists yet. *)

val set_capacity : int -> unit
(** Set the ring's size. Default 65536 spans; once full, the oldest
    spans are overwritten. With tracing on, a fresh ring of that size
    replaces the old one (so the spans are cleared); with tracing off,
    only the size is recorded, and the ring is reallocated when tracing
    is next switched on. *)

val clear : unit -> unit
(** Drop the retained spans. Works, as [spans] does, when no ring exists. *)

val total_recorded : unit -> int
(** Spans ever recorded, including those overwritten by wraparound. *)

val spans : unit -> span list
(** Retained spans, oldest first (completion order). *)

val to_chrome_json : unit -> string
(** The retained spans as a Chrome trace-event JSON document (loadable in
    chrome://tracing or ui.perfetto.dev). *)

val dump : string -> unit
(** Write [to_chrome_json ()] to a file. *)

val json_escape : string -> string
(** JSON string-body escaping, shared by every layer that renders JSON by
    hand (trace events, metrics, slow-query entries). *)
