(** Binary encoding and decoding of primitive values.

    All multi-byte quantities are little-endian. Encoders append to a
    {!Buffer.t}; decoders read from a string through a mutable cursor.
    Decoding past the end of the input, or reading malformed data, raises
    {!Corrupt}. *)

exception Corrupt of string
(** Raised when decoding encounters truncated or malformed input. *)

(** {1 Encoding} *)

val put_u8 : Buffer.t -> int -> unit
(** [put_u8 b n] appends the low byte of [n]. *)

val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit

val put_i64 : Buffer.t -> int64 -> unit

val put_int : Buffer.t -> int -> unit
(** [put_int b n] appends a native OCaml int as a signed 64-bit value. *)

val put_float : Buffer.t -> float -> unit
(** IEEE-754 bit pattern, 8 bytes. *)

val put_bool : Buffer.t -> bool -> unit

val put_string : Buffer.t -> string -> unit
(** Length-prefixed (u32) byte string. *)

val put_raw : Buffer.t -> string -> unit
(** Appends the bytes with no length prefix. *)

val put_varint : Buffer.t -> int -> unit
(** Unsigned LEB128, shortest form: one byte below 128, at most nine.
    Raises [Invalid_argument] on a negative. *)

val varint_size : int -> int
(** Bytes [put_varint] writes for a non-negative int. *)

val put_svarint : Buffer.t -> int -> unit
(** Any int, zigzag-mapped (0, -1, 1, -2, ... to 0, 1, 2, 3, ...) and
    then written in LEB128 groups: one byte from -64 to 63, at most nine. *)

val svarint_size : int -> int
(** Bytes [put_svarint] writes. *)

val max_varint_size : int
(** The most bytes a varint or an svarint takes: nine. *)

val set_varint : bytes -> int -> int -> int
(** [set_varint b pos n] writes the bytes {!put_varint} appends for [n]
    into [b] at [pos] and returns the offset after them: for a buffer
    that is filled in place. Raises [Invalid_argument] on a negative [n]
    or when [b] lacks the room. *)

val set_svarint : bytes -> int -> int -> int
(** {!put_svarint}'s bytes, written in place as {!set_varint}. *)

(** {1 Decoding} *)

type cursor
(** A read position within an immutable string, or within its bytes
    before a [stop] offset. *)

val cursor : ?pos:int -> ?stop:int -> string -> cursor
(** [cursor ~pos ~stop s] reads [s] from [pos] (default 0) up to [stop]
    (default its length), as if [s] ended there. Raises [Invalid_argument]
    when [stop] is not within [s]. *)

val pos : cursor -> int
val remaining : cursor -> int
val at_end : cursor -> bool

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_i64 : cursor -> int64
val get_int : cursor -> int
val get_float : cursor -> float
val get_bool : cursor -> bool
val get_string : cursor -> string
val get_raw : cursor -> int -> string

val skip : cursor -> int -> unit
(** Move past [n] bytes without reading them; raises {!Corrupt} when
    fewer remain. *)

val get_varint : cursor -> int
(** Reads what {!put_varint} writes; raises {!Corrupt} on truncated,
    overlong (not shortest-form) or overflowing input. *)

val get_svarint : cursor -> int
(** Reads what {!put_svarint} writes, with the same checks. *)

(** {1 Checksums} *)

val fnv64 : string -> int64
(** FNV-1a 64-bit hash, used as a WAL record checksum. Allocates nothing
    but its result. *)

val fnv64_sub : string -> pos:int -> len:int -> int64
(** Same hash over the [len] bytes of a string from [pos], in place: how
    the WAL stamps a frame inside its pending buffer. Raises
    [Invalid_argument] when the range is not inside the string. *)

val fnv64_sub_is : string -> pos:int -> len:int -> at:int -> bool
(** [fnv64_sub_is s ~pos ~len ~at] is whether {!fnv64_sub}[ s ~pos ~len]
    equals the little-endian [int64] at [at] of [s]: how the WAL checks a
    frame inside the buffer it read the log into, allocating nothing. Raises [Invalid_argument] when
    either range is not inside the string. *)

val fnv64_init : int64
(** The hash of no bytes, where a running hash starts. *)

val fnv64_feed : int64 -> string -> pos:int -> len:int -> int64
(** [fnv64_feed h s ~pos ~len] continues the running hash [h] over [len]
    bytes of [s] from [pos]: hashing a string in pieces, in order, from
    {!fnv64_init} gives {!fnv64} of the whole. *)

