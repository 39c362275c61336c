(** Global operation counters.

    Every layer of the system bumps counters; benchmarks snapshot them
    around a workload to report how much physical and logical work each
    strategy performed (pages touched, index probes, objects scanned, ...).

    Adding a counter is one line in the module that owns it, as with
    [Histogram.create]:
    {[
      let c_pool_hits = Ode_util.Stats.counter "pool_hits"
      ... Ode_util.Stats.incr c_pool_hits ...
    ]}
    The call runs at module initialization.
    [snapshot]/[diff]/[to_list]/[pp], the shell's [.stats]/[.recovery] and
    the server's [/metrics] pick the new name up with no further edits.
    Code outside the owner reads a counter by name with [get]. A counter
    bumped by several modules (index probes from either index, I/O retries
    from the disk and the WAL) is registered in each of them under the same
    name, group and kind and shares one slot.

    Counters are process-global plain ints, bumped and read on the one
    domain that runs the engine. *)

type group =
  | Workload  (** reported by [pp] / the shell's [.stats] *)
  | Recovery  (** reported by [pp_recovery] / the shell's [.recovery] *)

type kind =
  | Counter  (** monotonically increasing; resets only via [reset] *)
  | Gauge  (** overwritten with a current level (replication lag) *)

type counter
(** Handle on one registered slot. *)

val counter : ?group:group -> ?kind:kind -> string -> counter
(** Find or create the slot registered under this name (default group
    [Workload], kind [Counter]).
    @raise Invalid_argument if the name is already registered with a
    different group or kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : counter -> int -> unit
(** Overwrite a [Gauge] slot with the current level. *)

type snapshot
(** Counter values at the moment [snapshot] was taken; read with [get] or
    [to_list]. *)

val kind_of : string -> kind
(** Exposition kind of a registered slot ([Counter] if unknown) — lets the
    metrics renderer emit [# TYPE ... gauge] for set-style slots. *)

val register_gauge : string -> (unit -> int) -> unit
(** Register (or replace — same name wins) a live sampled gauge: current
    connections, cache residency, pending group-commit batch size. A
    raising sampler reads as 0. *)

val unregister_gauge : string -> unit

val gauges : unit -> (string * int) list
(** All registered sampled gauges, read now, sorted by name. *)

val snapshot : unit -> snapshot
val reset : unit -> unit

val zero : unit -> snapshot
(** An all-zero snapshot (e.g. an accumulator for [accum]). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the slot-wise difference. *)

val accum : into:snapshot -> snapshot -> snapshot -> unit
(** [accum ~into a b] adds [a - b] into [into], slot-wise, in place —
    allocation-free delta accumulation for the query profiler. *)

val registered : unit -> string list
(** All counter names, in registration order. *)

val to_list : snapshot -> (string * int) list
(** [(name, value)] pairs in registration order. *)

val get : snapshot -> string -> int
(** Value of a counter by name; 0 if unknown. Allocation-free. *)

val pp : Format.formatter -> snapshot -> unit
(** Workload counters (pages, pool, WAL, probes, ...), derived from the
    registry: every [Workload] counter as [name value], sorted by name so
    the output diffs stably regardless of module-initialization order. *)

val pp_recovery : Format.formatter -> snapshot -> unit
(** Durability counters (replays, torn bytes, checksum failures, ...). *)
