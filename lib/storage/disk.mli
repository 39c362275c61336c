(** Page-granular storage backends.

    Two implementations: a Unix file (random access, fsync-able) and an
    in-memory store (for tests and throwaway databases). Pages are numbered
    from 0 and are always {!Page.size} bytes.

    The file backend stamps an FNV-1a checksum into each page's trailer on
    write and verifies it on read ({!Ode_util.Codec.Corrupt} on mismatch),
    and routes {!write_batch} through a double-write journal
    ([<path>.journal]) so a crash mid-flush never leaves a mix of old and
    new pages. *)

type t

val open_file : string -> t
(** [open_file path] opens (creating if absent) a page file. Replays or
    discards a leftover double-write journal, then drops any torn trailing
    pages (sub-page tails and trailing checksum failures). *)

val in_memory : unit -> t
(** A volatile backend backed by a growable array. *)

val is_memory : t -> bool

val page_count : t -> int
(** Number of allocated pages, those reserved and not yet written
    included. *)

val read : t -> int -> bytes
(** [read t n] returns a fresh buffer with page [n]'s contents. Raises
    [Invalid_argument] when [n] is out of range. *)

val read_into : t -> int -> bytes -> unit
(** Like {!read} but fills the caller's buffer. *)

val write : t -> int -> bytes -> unit
(** [write t n page] persists [page] at index [n]. [n] may be at most
    [page_count t] (writing at [page_count] extends the file). On the file
    backend the page's checksum trailer is stamped in place, and reserved
    pages below [n] the file does not hold yet are written as zero pages,
    so the file has no holes. *)

val write_batch : t -> (int * bytes) list -> unit
(** Crash-atomically persist a set of allocated pages and fsync: on the file
    backend the batch goes to the double-write journal first, so after a
    crash either every page or no page of the batch is visible. Reserved
    pages it writes extend the file; any reserved page it skips below them
    is written as a zero page in the same batch. *)

val encode_journal : (int * bytes) list -> bytes
(** The double-write journal of a batch of stamped pages, in the order
    given, as one image: ["ODEDWJ01"], a u32 count, each u32 page number
    and page, and an FNV-1a trailer. {!write_batch} streams these bytes,
    in page order, without building the image; this encoder is the
    reference that tests compare the stream with. *)

val allocate : t -> int * bytes
(** Reserve the next page, returning its index and a zeroed image the
    caller owns. On the file backend nothing is written: the page counts in
    {!page_count} but reaches the file only when {!write} or {!write_batch}
    first writes it, and {!read} of it raises [Invalid_argument] until
    then. So after a crash the file ends at the last write, and a page
    reserved since is reserved again under the same number. The memory
    backend stores the zero page at once. *)

val sync : t -> unit
(** Flush OS buffers (no-op in memory). *)

val truncate : t -> int -> unit
(** [truncate t n] drops pages at index [n] and beyond. *)

val close : t -> unit
