(** Order-preserving key encodings.

    B+tree keys are byte strings compared lexicographically; these encoders
    map typed values to byte strings such that byte order equals value
    order, and composite keys compare field by field. *)

val of_nat : int -> string
(** A width byte [w] (0 to 8), then the [w] significant bytes of the
    natural, big-endian: 0 is one byte, 255 two, 65,535 three. Byte order
    is integer order, and no encoding is a prefix of another, so a
    natural can lead a composite key. Every integer the engine chooses
    (class ids, object numbers, version numbers, index ids, trigger ids)
    is encoded this way.
    @raise Invalid_argument on a negative input. *)

val nat_size : int -> int
(** The bytes {!of_nat} takes. *)

val set_nat : bytes -> int -> int -> int
(** [set_nat b pos n] writes {!of_nat}[ n] into [b] at [pos] and returns
    the position past it, for a key built once at its final size. *)

val build : ('a -> int) -> (bytes -> int -> 'a -> int) -> 'a -> string
(** [build size set x]: the [size x] bytes [set] writes for [x] from
    position 0, as a string built once at its final size. [set b pos x]
    returns the position past what it wrote, as {!set_nat} does. *)

val nat_at : string -> int -> int * int
(** [nat_at s pos] decodes the {!of_nat} encoding that starts at [pos],
    returning the natural and the position just past it.
    @raise Codec.Corrupt on a truncated or non-canonical encoding. *)

val of_number : float -> string
(** A number for an index key: its IEEE-754 image made order-preserving
    (positive floats get their sign bit set, negative floats are fully
    complemented, so NaN sorts above everything), without its trailing
    zero bytes, each 0x00 byte written 0x01 0x01 and each 0x01 written
    0x01 0x02, then a 0x00 terminator. Where the image takes 8 bytes, an
    int takes 3 up to 16, 4 below 2{^ 12} and 5 below 2{^ 20}, and a
    negative number 9. The
    escapes keep byte order, and the terminator sorts below any byte that
    may follow it, so byte order is numeric order still, with [-0.0]
    written as [0.0]; and since no image in this form ends in a zero
    byte, and 0x00 only ends one, no encoding is a prefix of another. *)

val number_size : float -> int
(** The bytes {!of_number} takes. *)

val set_number : bytes -> int -> float -> int
(** {!of_number}'s bytes, written in place as {!set_nat} writes. *)

val number_end : string -> int -> int
(** [number_end s pos] is the position just past the {!of_number}
    component that starts at [pos].
    @raise Codec.Corrupt if it is unterminated, badly escaped, longer than
    eight bytes or not in its shortest form. *)

val of_string : string -> string
(** Escaped so that a composite key never compares past a component
    boundary: 0x00 becomes 0x00 0xff, and the component ends with
    0x00 0x00. *)

val string_size : string -> int
(** The bytes {!of_string} takes. *)

val set_string : bytes -> int -> string -> int
(** {!of_string}'s bytes, written in place as {!set_nat} writes. *)

val string_end : string -> int -> int
(** [string_end s pos] is the position just past the {!of_string}
    component that starts at [pos].
    @raise Codec.Corrupt if it is unterminated or badly escaped. *)

val of_bool : bool -> string

val concat : string list -> string
(** Join already-encoded components. *)

val succ_prefix : string -> string option
(** [succ_prefix p] is the smallest string greater than every string with
    prefix [p], or [None] if [p] is all 0xff. Used to turn prefix scans into
    range scans. *)

val sort_by : ('a -> string) -> 'a array -> 'a array
(** [sort_by key a] is [a] sorted by [key] in [String.compare]'s byte
    order, stably, as a new array. It radix-sorts the keys' first seven
    bytes, which orders most keys of a large write set without
    comparing them, and compares whole keys only where those bytes tie;
    an array of fewer than 64 is sorted by comparison alone. *)
