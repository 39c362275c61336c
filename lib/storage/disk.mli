(** Page-granular storage backends.

    Two implementations: a Unix file (random access, fsync-able) and an
    in-memory store (for tests and throwaway databases). Pages are numbered
    from 0 and are always {!Page.size} bytes.

    The file backend stamps an FNV-1a checksum into each page's trailer on
    write and verifies it on read, and routes {!write_batch}, its only
    write path, through a double-write journal ([<path>.journal]) so a
    crash mid-flush never leaves a mix of old and new pages. Nothing is
    repaired but from that journal: a damaged page raises
    {!Ode_util.Codec.Corrupt} ["<path>: page <n>: ..."], and the page stays
    in the file as it is.

    Pages are {!Page.t}s, outside the OCaml heap, and move between them
    and the file with one [pread]/[pwrite] each, at the page's offset:
    no seek, and no copy through an intermediate buffer. *)

type t

val open_file : string -> t
(** [open_file path] opens (creating if absent) a page file, and replays
    or discards a leftover double-write journal. No page is dropped: a
    file that then ends inside a page raises {!Ode_util.Codec.Corrupt}
    naming [path] and that page. *)

val in_memory : unit -> t
(** A volatile backend backed by a growable array. *)

val name : t -> string
(** The file's path, or ["memory"]: the name a {!Ode_util.Codec.Corrupt}
    message gives the damaged page's file. *)

val page_count : t -> int
(** Number of allocated pages, those reserved and not yet written
    included. *)

val read : t -> int -> Page.t
(** [read t n] returns a fresh page with page [n]'s contents. Raises
    [Invalid_argument] when [n] is out of range, and
    {!Ode_util.Codec.Corrupt} ["<path>: page <n>: bad checksum"] when the
    file's page fails its checksum. *)

val read_into : t -> int -> Page.t -> unit
(** Like {!read} but fills the caller's page. A file that ends inside
    the page (cut short under an open disk) raises [Invalid_argument
    "disk: short read"]. *)

val write_batch : t -> (int * Page.t) list -> unit
(** Crash-atomically persist a set of allocated pages and fsync: on the file
    backend each page's checksum trailer is stamped in place and the batch
    goes to the double-write journal first, so after a crash either every
    page or no page of the batch is visible. Reserved pages it writes
    extend the file; any reserved page it skips below them is written as a
    zero page in the same batch. Raises [Invalid_argument] ["disk: page n
    out of range"], before writing anything, when a page is not
    allocated. *)

val encode_journal : (int * Page.t) list -> Bigbytes.t
(** The double-write journal of a batch of stamped pages, in the order
    given, as one image: ["ODEDWJ01"], a u32 count, each u32 page number
    and page, and an FNV-1a trailer. {!write_batch} streams these bytes,
    in page order, without building the image; this encoder is the
    reference that tests compare the stream with. *)

val allocate : t -> int * Page.t
(** Reserve the next page, returning its index and a zeroed image the
    caller owns. On the file backend nothing is written: the page counts in
    {!page_count} but reaches the file only when {!write_batch} first
    writes it, and {!read} of it raises [Invalid_argument] until
    then. So after a crash the file ends at the last write, and a page
    reserved since is reserved again under the same number. The memory
    backend stores the zero page at once. *)

val sync : t -> unit
(** Flush OS buffers (no-op in memory). *)

val close : t -> unit
