(** Dynamic values: the runtime representation of object fields.

    Sets are normalized (sorted, duplicate-free) so that structural equality
    coincides with set equality. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Ref of Oid.t         (** generic reference: always the current version *)
  | Vref of Oid.vref     (** specific reference to one version *)
  | VList of t list
  | VSet of t list       (** invariant: sorted by {!compare}, no duplicates *)

val compare : t -> t -> int
(** Total order: constructor rank first, then structural. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!pp}'s text, written without [Format]. *)

val to_string : t -> string
(** {!pp}'s text, through {!add_to_buffer}. *)

val set_of_list : t list -> t
(** Build a normalized [VSet]. *)

val set_add : t -> t -> t
(** [set_add v s] — [s] must be a [VSet]. *)

val set_remove : t -> t -> t
val set_mem : t -> t -> bool

val set_union : t -> t -> t
(** [set_union a b]: both must be [VSet]s. One merge of their elements,
    O(n + m); where an element of [b] equals one of [a], [a]'s is kept. *)

val set_diff : t -> t -> t
(** [set_diff a b]: the elements of [a] equal to none of [b], by one
    merge, O(n + m). *)

val encode : Buffer.t -> t -> unit
(** Self-describing: a tag byte, then the value in fixed widths. Named
    roots, whose values have no declared type, are stored this way; object
    slots and trigger arguments are written by their declared types
    instead ([Store.put_slot]). Its bytes are fixed, as {!fields_encode}'s
    are. *)

val decode : Ode_util.Codec.cursor -> t

val index_key : t -> string
(** Order-preserving key for secondary indexes. Only defined for [Null],
    [Int], [Float], [Bool], [Str] and [Ref]; raises [Invalid_argument]
    otherwise. [Int] and [Float] share one numeric keyspace, so an index on
    a float field built from int literals still scans correctly. *)

val index_key_size : t -> int
(** The bytes {!index_key} takes; raises as it does. *)

val set_index_key : bytes -> int -> t -> int
(** [set_index_key b pos v] writes {!index_key}[ v] into [b] at [pos] and
    returns the position past it, for a key built once at its final
    size; raises as {!index_key} does, before writing. *)

val fields_encode : (string * t) list -> string
(** Self-describing encoding of named fields: a u16 count, then each
    field's u32-framed name and {!encode}d value. Object records do not
    use it (they store slots in their class's layout); it is the size measure
    that storage-space ratios are taken against, so its bytes are fixed. *)
