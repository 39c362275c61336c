(** A fixed-capacity page cache over a {!Disk.t}: one LRU of frames.

    Callers pin pages to work on them and unpin when done; only unpinned
    pages are eviction candidates (least recently used first). Dirty pages
    are written back on eviction (outside a {!with_no_flush} section) and
    on {!flush_all}, always as one crash-atomic batch. A pool takes no
    lock: it belongs to one database, which is used from one domain. *)

type t

exception Pool_exhausted
(** Raised when every frame is pinned and a new page is requested. *)

type frame
(** A cached page. The underlying bytes are shared: mutating them requires
    calling {!mark_dirty}. *)

val data : frame -> Page.t
(** The frame's page, outside the OCaml heap: a pool of [n] resident
    frames holds [n] times {!Page.size} bytes of page memory, plus a few
    words of OCaml heap per frame. A frame evicted to make room lends its
    page to the one that replaces it; {!release} frees the pages of a
    closed database's pool at once. *)

val page_no : frame -> int

val create : ?capacity:int -> Disk.t -> t
(** [create disk] wraps [disk] with a pool of [capacity] frames
    (default 256). *)

val disk : t -> Disk.t
val capacity : t -> int

val resident : t -> int
(** Frames currently cached. *)

val set_pre_write : t -> (unit -> unit) -> unit
(** Hook run immediately before any batch of dirty pages is written back
    (eviction or {!flush_all}). The engine installs a WAL force here so that
    under deferred durability (group/async commit) no data page whose log
    records are still buffered can reach the disk first — the classic
    log-force-before-steal rule. Default: no-op. *)

val pin : t -> int -> frame
(** [pin t n] returns page [n], loading it if needed, and increments its pin
    count. Raises {!Ode_util.Ode_error.Error} [Resource "database is
    closed"] on a {!release}d pool, as {!allocate} does. *)

val unpin : t -> frame -> unit

val with_page : t -> int -> (frame -> 'a) -> 'a
(** Pin, apply, unpin (also on exceptions). *)

val mark_dirty : t -> frame -> unit

val allocate : t -> frame
(** Reserve the disk's next page and return it pinned, zeroed and dirty.
    It reaches the disk with the next write-back, so a page allocated after
    the last flush leaves no trace of itself in the file after a crash. *)

val with_no_flush : t -> (unit -> 'a) -> 'a
(** [with_no_flush t f] runs [f] in a no-flush section, for a multi-page
    update whose pages are consistent only once it completes. Inside it,
    making room evicts clean frames only; a full pool with none goes over
    capacity rather than write back part of the update. When the
    outermost section returns, the pool is trimmed back to capacity,
    flushing if needed. If [f] raises, no trim happens then; the overflow
    waits for the next section. Sections nest. {!flush_all} is not
    affected. *)

val page_count : t -> int

val flush_all : t -> unit
(** Write back every dirty frame and sync the disk. *)

val drop_cache : t -> unit
(** Forget all unpinned clean frames (used by tests to force re-reads). *)

val release : t -> unit
(** Forget every frame, dirty or not, without writing any back: for a
    pool whose disk has been closed. Every unpinned frame's page is freed
    at once and reads length 0 after it (a frame still pinned keeps its
    page until the GC collects it), so a closed or crashed database
    handle holds no page memory. The pool stays released: a later {!pin}
    or {!allocate} raises. *)
