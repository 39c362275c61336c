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
val to_string : t -> string

val set_of_list : t list -> t
(** Build a normalized [VSet]. *)

val set_add : t -> t -> t
(** [set_add v s] — [s] must be a [VSet]. *)

val set_remove : t -> t -> t
val set_mem : t -> t -> bool

val encode : Buffer.t -> t -> unit
val decode : Ode_util.Codec.cursor -> t

val index_key : t -> string
(** Order-preserving key for secondary indexes. Only defined for [Null],
    [Int], [Float], [Bool], [Str] and [Ref]; raises [Invalid_argument]
    otherwise. [Int] and [Float] share one numeric keyspace, so an index on
    a float field built from int literals still scans correctly. *)

val fields_encode : (string * t) list -> string
(** Serialize an object payload: field name/value pairs. *)

val fields_decode : string -> (string * t) list

val put_fields : Buffer.t -> (string * t) list -> unit
(** [fields_encode] appended to a buffer, for payloads that carry fields
    after other data. *)

val get_fields : Ode_util.Codec.cursor -> (string * t) list
(** [fields_decode] from a cursor, which is left just past the fields. *)
