(** Render layer over {!Stats} and {!Histogram}: one function per
    exposition format. Values are read through the registries' own
    domain-safe accessors, so rendering is safe on one domain while others
    emit. *)

val sanitize : string -> string
(** Dots and other non-identifier characters become underscores —
    Prometheus metric names admit only [\[a-zA-Z0-9_\]]. *)

val metric_name : string -> string
(** [sanitize] plus the ["ode_"] family prefix. *)

val prometheus : unit -> string
(** Prometheus text exposition: every Stats counter ([# TYPE ... counter],
    or gauge for set-style slots), every sampled gauge, and every
    histogram as a summary with 0.5/0.95/0.99 quantiles plus [_sum] and
    [_count], named with an [_ns] suffix for durations and none for
    counts. *)

val json_escape : string -> string
(** JSON string-body escaping, shared by every layer that renders JSON by
    hand (metrics, slow-query entries). *)

val json : unit -> string
(** The same snapshot as one JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{name:{count,sum_ns,
    max_ns,p50_ns,p95_ns,p99_ns}}}], the [_ns] dropped for a count. *)
