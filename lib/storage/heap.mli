(** Heap files: unordered collections of variable-length records.

    A heap owns a whole pager. Page 0 is a header page: the format's magic,
    then the checkpoint LSN ({!lsn}), then zeros. All other pages are
    slotted data pages. Records larger than a page are split into chunks
    chained by record id. Record ids ([rid]) name the head record and remain
    valid until the record is deleted; {!update} may move a record and then
    returns its new rid (callers keeping long-lived references must go
    through a directory, as the object store does). *)

type t

type rid = { page : int; slot : int }

val pp_rid : Format.formatter -> rid -> unit
val rid_equal : rid -> rid -> bool

val attach : Buffer_pool.t -> t
(** [attach pool] opens the heap stored in [pool]'s disk, formatting a fresh
    header if the disk is empty. Raises {!Ode_util.Codec.Corrupt}
    ["<file>: bad magic ..."] on a file of another format, and
    ["<file>: page <n>: ..."] on a damaged page. *)

val pool : t -> Buffer_pool.t

val lsn : t -> int
(** The header's checkpoint LSN: the last commit the data files held at
    their latest checkpoint (0 when fresh), which the log continues from. *)

val set_lsn : t -> int -> unit
(** Set the header's LSN; the next {!flush} writes it, under the
    double-write journal, with the data pages it describes. *)

val insert : t -> string -> rid
val get : t -> rid -> string option

val get_with : t -> rid -> (Bigbytes.t -> int -> int -> 'a) -> 'a option
(** [get_with t rid read] is [Some (read b off len)] over the [len] bytes
    at [off] of [b] that {!get} would return: the record in its pinned
    page when it fits one, so [get] copies it once, or a {!Bigbytes.t}
    of the chain's reassembled bytes. Either way [read] sees the same
    type; it must not keep [b] or touch the pool. *)

val delete : t -> rid -> bool

val update : t -> rid -> string -> rid
(** Replace the record's payload. Returns the (possibly new) rid; the old
    rid is dead if the record moved. The rid must be live. *)

val iter : t -> (rid -> string -> unit) -> unit
(** Visit every live record, reassembling chunked ones. Order is physical
    (page, then slot). *)

val sweep_orphans : t -> live:(rid -> bool) -> int
(** Delete every head/inline record for which [live rid] is false (freeing
    overflow chains), returning how many were reclaimed. Used after crash
    recovery to drop heap records whose directory entry never reached
    disk. *)

val record_count : t -> int
val page_count : t -> int
val flush : t -> unit
