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
(** Number of allocated pages. *)

val read : t -> int -> bytes
(** [read t n] returns a fresh buffer with page [n]'s contents. Raises
    [Invalid_argument] when [n] is out of range. *)

val read_into : t -> int -> bytes -> unit
(** Like {!read} but fills the caller's buffer. *)

val write : t -> int -> bytes -> unit
(** [write t n page] persists [page] at index [n]. [n] may be at most
    [page_count t] (writing at [page_count] extends the file). On the file
    backend the page's checksum trailer is stamped in place. *)

val write_batch : t -> (int * bytes) list -> unit
(** Crash-atomically persist a set of existing pages and fsync: on the file
    backend the batch goes to the double-write journal first, so after a
    crash either every page or no page of the batch is visible. Pages must
    already be allocated. *)

val allocate : t -> int * bytes
(** Extend by one zeroed page, returning its index and the image just
    written (checksum stamped on the file backend). The caller owns the
    image: it is exactly what {!read} would return for the new page. *)

val sync : t -> unit
(** Flush OS buffers (no-op in memory). *)

val truncate : t -> int -> unit
(** [truncate t n] drops pages at index [n] and beyond. *)

val close : t -> unit
