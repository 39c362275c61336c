(** Slow-query log sink: arming threshold, a size-rotated JSON-lines file,
    and a bounded in-memory ring of recent entries for [.slow \[K\]].
    Process-global. The entry JSON is assembled by the caller (the session
    layer owns the statement, trace id, execute time and query profile). *)

val configure :
  ?log_path:string -> ?log_max_bytes:int -> ?keep:int -> threshold_ms:int -> unit -> unit
(** Arm the log: requests at or over [threshold_ms] get recorded.
    [threshold_ms < 0] disarms. [log_path] is optional — without it only
    the in-memory ring retains entries. [log_max_bytes] (default 8 MiB)
    caps the live file; on overflow it rotates once to [<path>.1].
    [keep] (default 128) sizes the ring. Resets retention. *)

val disarm : unit -> unit

val armed : unit -> bool

val threshold_ns : unit -> int
(** Armed threshold in nanoseconds; [max_int] when disarmed, so
    [dur >= threshold_ns ()] is the one branch on the request path. *)

val record : dur_ns:int -> string -> unit
(** Retain one entry (a complete JSON object, no trailing newline) in the
    ring and append it as a line to the log file if one is configured. *)

val worst : int -> string list
(** The K retained entries with the longest durations, worst first. *)

val retained : unit -> int
