(** Render layer over {!Stats} and {!Histogram}: one function per
    exposition format. *)

val prometheus : unit -> string
(** Prometheus text exposition: every Stats counter ([# TYPE ... counter],
    or gauge for set-style slots), every sampled gauge, and every
    histogram as a summary with 0.5/0.95/0.99 quantiles plus [_sum] and
    [_count], named with an [_ns] suffix for durations and none for
    counts. Metric names are the registered names with dots and other
    non-identifier characters turned into underscores, under the ["ode_"]
    prefix. *)

val json : unit -> string
(** The same snapshot as one JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{name:{count,sum_ns,
    max_ns,p50_ns,p95_ns,p99_ns}}}], the [_ns] dropped for a count. *)
