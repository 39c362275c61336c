(** A mutable LRU map over hashable keys.

    Used by the buffer pool to pick eviction victims (integer page keys).
    The structure keeps entries in recency order; [find] refreshes an
    entry, [evict] removes the least recently used entry satisfying a
    predicate. *)

type ('k, 'a) t

val create : int -> ('k, 'a) t
(** [create capacity] makes an empty LRU that considers itself full beyond
    [capacity] entries (capacity is advisory; the structure never drops
    entries on its own). It allocates a few words, whatever [capacity] is:
    the first [add] makes a small table, which grows as entries are added,
    so an LRU holds memory in proportion to its entries, not to its
    capacity. *)

val capacity : ('k, 'a) t -> int
val length : ('k, 'a) t -> int

val find : ('k, 'a) t -> 'k -> 'a option
(** [find t k] returns the value and refreshes recency. *)

val get : ('k, 'a) t -> 'k -> 'a
(** Like [find], but raises [Not_found] on a miss; a hit allocates
    nothing. *)

val add : ('k, 'a) t -> 'k -> 'a -> unit
(** [add t k v] inserts or replaces the binding and marks it most recent. *)

val evict : ('k, 'a) t -> ('k -> 'a -> bool) -> ('k * 'a) option
(** [evict t ok] removes and returns the least recently used binding for
    which [ok k v] holds, or [None] if none qualifies. *)

val clear : ('k, 'a) t -> unit
(** Drop every entry, and the table with them. *)

val iter : ('k, 'a) t -> ('k -> 'a -> unit) -> unit
(** Iterate from least to most recently used. *)
