(** Slotted pages.

    A page is a fixed-size {!Bigbytes.t} holding variable-length records behind
    a slot directory, so records can move within the page (compaction)
    without changing their externally visible slot number.

    Layout:
    {v
      [u16 nslots][u16 free_lo][u16 free_hi][u16 reserved]
      slot 0: [u16 off][u16 len]   -- off = 0xffff means dead slot
      slot 1: ...
      ... free space ...
      record data, growing down to [data_end]
      [8-byte checksum trailer, owned by the disk layer]
    v} *)

val size : int
(** Page size in bytes (4096). *)

val trailer_bytes : int
(** Bytes reserved at the end of every page for the disk layer's checksum;
    the slotted layout never uses them. *)

val data_end : int
(** First byte past the slotted data area ([size - trailer_bytes]). *)

val max_record : int
(** Largest record that fits in an empty page. *)

type t = Bigbytes.t
(** A page is exactly {!size} bytes, held outside the OCaml heap: a
    resident page costs its 4 KiB and a custom block of a few words, and
    the GC's garbage allowance, which grows with the major heap, does not
    grow with the pages. *)

val create : unit -> t
(** A fresh, empty, formatted page. *)

val reset : t -> unit
(** Re-format an existing buffer as an empty page. *)

val nslots : t -> int
(** Number of slot directory entries (live and dead). *)

val live_count : t -> int
(** Number of live records. *)

val free_space : t -> int
(** Bytes available for a new record right now, accounting for the slot
    directory entry a fresh insert may need (after compaction if needed). *)

val insert : t -> string -> int option
(** [insert p data] stores [data], returning its slot, or [None] if the page
    cannot hold it. Reuses dead slots; compacts when fragmented. *)

val get : t -> int -> string option
(** [get p slot] is the record stored at [slot], or [None] if the slot is
    dead or out of range. *)

val record_at : t -> int -> int
(** The offset in the page of the record at [slot], or -1 where {!get}
    would answer [None]; [record_length] is then its length. *)

val record_length : t -> int -> int

val delete : t -> int -> bool
(** [delete p slot] kills the slot; false if it was not live. *)

val update : t -> int -> string -> bool
(** [update p slot data] replaces the record in place, moving it within the
    page if needed; false if it cannot fit or the slot is not live. *)

val iter : t -> (int -> string -> unit) -> unit
(** Visit live records in slot order. *)

val iter_first_byte : t -> (int -> int -> unit) -> unit
(** [iter_first_byte p f] calls [f slot byte] with the first byte of each
    live, non-empty record, in slot order, copying no record. *)

val check : t -> (unit, string) result
(** Structural invariant check: slot bounds, no overlap, free pointers sane.
    Used by tests. *)
