(** Byte arrays outside the OCaml heap.

    Every page the storage layer holds (a buffer-pool frame, a page of the
    memory backend, a journal image) and every byte range its readers
    decode (a pinned leaf, a cursor's copy of one, a reassembled overflow
    record) is a [t]. Its bytes live in memory the GC neither scans nor
    counts towards its heap, so a resident page costs its own size, not
    that size times the major heap's garbage allowance; the GC frees them
    when the last reference goes.

    Fixed-width fields are read and written in place, little-endian
    unless named otherwise, and bounds-checked like [Bytes]'s. Copies are
    [memmove]/[memcpy], and file I/O goes straight between a file and the
    bytes, with no buffer in between. *)

type t = private (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Only this module makes a [t], and no other module names [Bigarray].
    The abbreviation is private rather than abstract so that {!get},
    {!set} and {!unsafe_get} compile to an inline load or store at every
    use, also in callers built without cross-module inlining; through an
    abstract type each would be a C call. *)

val create : int -> t
(** [create n] is [n] zero bytes. *)

val empty : t
val length : t -> int
val of_string : string -> t
val to_string : t -> string

val sub : t -> int -> int -> t
(** [sub b off len] is a fresh copy of the [len] bytes at [off]. *)

val sub_string : t -> int -> int -> string
(** [sub_string b off len] is a fresh string of the [len] bytes at [off]. *)

external get : t -> int -> char = "%caml_ba_ref_1"
external set : t -> int -> char -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> char = "%caml_ba_unsafe_ref_1"
(** No bounds check: for loops whose caller has checked the range. *)

(** {2 Fixed-width fields}

    Little-endian, the store's byte order, which is also the host's: the
    module refuses to initialise on a big-endian host. They are the
    compiler's bigstring primitives, so every use compiles to a
    bounds-checked load or store in place, with no call and no boxing,
    also where the caller is compiled without cross-module inlining. *)

external get_uint16_le : t -> int -> int = "%caml_bigstring_get16"
external set_uint16_le : t -> int -> int -> unit = "%caml_bigstring_set16"
external get_int32_le : t -> int -> int32 = "%caml_bigstring_get32"
external set_int32_le : t -> int -> int32 -> unit = "%caml_bigstring_set32"
external get_int64_le : t -> int -> int64 = "%caml_bigstring_get64"
external set_int64_le : t -> int -> int64 -> unit = "%caml_bigstring_set64"

external unsafe_get_int64_le : t -> int -> int64 = "%caml_bigstring_get64u"
(** No bounds check. *)

external bswap64 : int64 -> int64 = "%bswap_int64"
(** Byte-swap: [bswap64 (unsafe_get_int64_le b i)] is the big-endian word
    at [i], whose unsigned order is the order of its eight bytes. *)

val fill : t -> int -> int -> char -> unit
(** [fill b off len c] sets [len] bytes from [off] to [c]. *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src soff dst doff len], the two ranges possibly overlapping
    (within one array). *)

val blit_from_string : string -> int -> t -> int -> int -> unit
val blit_to_bytes : t -> int -> bytes -> int -> int -> unit

val release : t -> unit
(** [release b] frees [b]'s bytes at once instead of when the GC finds
    [b] unreachable, and leaves [b] of length 0: any bounds-checked access
    to it afterwards raises [Invalid_argument]. Only for an array nothing
    will read again; the buffer pool alone calls it, on the unpinned
    frames of a pool whose database is closed. *)

val fnv64_feed : int64 -> t -> pos:int -> len:int -> int64
(** [fnv64_feed h b ~pos ~len] continues the FNV-1a hash [h] over [len]
    bytes at [pos], as {!Ode_util.Codec.fnv64_feed} does over a string. *)

val pread : Unix.file_descr -> t -> pos:int -> len:int -> off:int -> int
(** [pread fd b ~pos ~len ~off] is one [pread(2)] of up to [len] bytes at
    file offset [off] into [b] at [pos]: the count read, 0 at end of file.
    Raises [Unix.Unix_error] as [Unix.read] does, [EINTR] included; the
    caller retries. *)

val pwrite : Unix.file_descr -> t -> pos:int -> len:int -> off:int -> int
(** [pwrite fd b ~pos ~len ~off] is one [pwrite(2)] of up to [len] bytes
    of [b] from [pos] at file offset [off]: the count written. Raises as
    {!pread}. *)
