(** Log-bucketed latency histograms per operation class. Bucket [i] covers
    [2^i, 2^(i+1)-1] ns, so percentile estimates carry at most ~2x relative
    error, clamped to the observed max. Always on: the sites are coarse
    operation boundaries. Process-global, observed and read on the one
    domain that runs the engine. *)

type t

(** What a histogram's observations are: durations in nanoseconds, or
    plain counts (such as commits per WAL sync). The buckets are the
    same; the measure decides how values print and how they export. *)
type measure = Nanoseconds | Count

val create : ?measure:measure -> string -> t
(** Find-or-create the histogram registered under this name; a new one
    measures [measure] (default [Nanoseconds]). *)

val find : string -> t option
val all : unit -> t list
(** All registered histograms, in creation order. *)

val observe : t -> int -> unit
(** Record one value in the histogram's measure (negative values clamp
    to 0). *)

val time : t -> (unit -> 'a) -> 'a
(** Run a thunk and record its duration (also on exception). When disabled,
    calls the thunk directly. *)

val count : t -> int
val max_ns : t -> int
val mean_ns : t -> float

val percentile : t -> float -> int
(** [percentile h p] for [p] in (0,100]: the upper bound of the bucket
    containing the p-th percentile rank, clamped to the observed max.
    0 when empty. *)

val bucket_index : int -> int
(** The bucket a duration falls in (exposed for tests). *)

type row = {
  r_name : string;
  r_measure : measure;
  r_count : int;
  r_sum_ns : int;
  r_max_ns : int;
  r_p50 : int;
  r_p95 : int;
  r_p99 : int;
}
(** A histogram's count, sum, max and quantiles. *)

val snapshot : t -> row

val rows : unit -> row list
(** [snapshot] of every registered histogram, sorted by name. *)

val reset : t -> unit
val reset_all : unit -> unit

val format_ns : int -> string
(** Human duration: ns / us / ms / s with sensible precision. *)

val format : measure -> int -> string
(** [format_ns] for durations, the bare number for counts. *)

val suffix : measure -> string
(** The unit suffix of an exported name: ["_ns"] for durations, none for
    counts. *)

val summary : unit -> string
(** A table of every registered histogram: count, p50, p95, p99, max,
    mean, each rendered by the histogram's measure. *)

(** Equi-depth key-distribution histograms for planner statistics: each
    bucket covers ~total/buckets rows of an order-preserving key space,
    bounded by real observed keys, so selectivity estimates track skew.
    Immutable once built (rebuilt by `.analyze`). *)
module Dist : sig
  type t

  val empty : t
  val default_buckets : int

  val of_sorted : ?buckets:int -> string array -> t
  (** Build from keys sorted ascending (duplicates allowed). Bucket edges
      never split a run of equal keys. *)

  val total : t -> int
  val distinct : t -> int
  val buckets : t -> int

  val eq_fraction : t -> string -> float
  (** Estimated fraction of rows equal to the key: rows-per-distinct of
      the containing bucket. 0 when empty or out of range. *)

  val range_fraction : t -> (string * bool) option -> (string * bool) option -> float
  (** [range_fraction d lo hi]: estimated fraction of rows between the
      optional bounds (bool = inclusive). Whole buckets count fully,
      boundary buckets half. *)

  val encode : Buffer.t -> t -> unit
  val decode : Codec.cursor -> t
end
