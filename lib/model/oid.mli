(** Object identities.

    Every persistent object is identified by a unique object id carrying its
    class. Ids are never reused. A {!vref} names one specific version of a
    versioned object, whereas an {!t} used as a reference is a *generic*
    reference that always denotes the current version (paper §4). *)

type t = { cls : int; num : int }
(** [cls] is the catalog class id, [num] a per-class sequence number. *)

type vref = { oid : t; ver : int }

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val compare_vref : vref -> vref -> int
val pp_vref : Format.formatter -> vref -> unit

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!pp}'s text, without [Format]. *)

val add_vref_to_buffer : Buffer.t -> vref -> unit
(** Appends {!pp_vref}'s text, without [Format]. *)

val encode : Buffer.t -> t -> unit
val decode : Ode_util.Codec.cursor -> t
val encode_vref : Buffer.t -> vref -> unit
val decode_vref : Ode_util.Codec.cursor -> vref

val key : t -> string
(** Order-preserving directory key: [Key.of_nat cls ^ Key.of_nat num], so
    an object with class id below 256 and number below 65,536 has a key
    of at most 5 bytes. Objects of one class are contiguous and sorted by
    allocation order, so a key-range scan of a class prefix is exactly
    the paper's cluster iteration order. *)

val key_size : t -> int
(** The bytes {!key} takes. *)

val set_key : bytes -> int -> t -> int
(** [set_key b pos a] writes {!key}[ a] into [b] at [pos] and returns the
    position past it, for a key built once at its final size. *)

val key_class_prefix : int -> string
(** Directory key prefix covering every object of a class, and no object
    of another: the encoding is prefix-free. *)

val of_key_at : string -> int -> t * int
(** [of_key_at s pos] decodes the {!key} that starts at [pos], returning
    the oid and the position just past it.
    @raise Ode_util.Codec.Corrupt on a malformed key. *)
