(** The committed key-value store: a B+tree directory mapping logical keys
    (see {!Keys}) to heap record ids, with payloads in the heap.

    This is the *committed* state only — transactions overlay it with their
    write set (see {!Store.read}). Keys are ordered, so class extents and
    index ranges scan in key order. All operations are idempotent with
    respect to crash-recovery replay: {!put_sorted} and {!delete} tolerate a
    directory entry pointing at a dead or torn heap record, and every heap
    record carries its owning key, so a stale post-crash directory entry
    that aliases a reused (page, slot) address can never redirect an
    operation onto another key's record. *)

open Types

val encode_rid : Ode_storage.Heap.rid -> string
val decode_rid : string -> Ode_storage.Heap.rid
(** The directory's 6-byte rid value encoding (recovery and verification). *)

val decode_record : string -> string -> string option
(** [decode_record key raw] extracts the payload from a raw heap record if
    it is owned by [key]; [None] means the record belongs to another key
    (verification and stale-alias detection). *)

val decode_record_view : string -> string -> string option
(** Same contract as {!decode_record} (of which it is the implementation):
    the ownership check runs by offset arithmetic against the raw record, no
    intermediate key copy, and a malformed record yields [None] instead of
    raising. *)

val get : db -> string -> string option
val mem : db -> string -> bool
val put_sorted : db -> (string * string) array -> on_new:(string -> unit) -> unit
(** [put_sorted db puts ~on_new] writes each [(key, payload)]; keys are
    distinct and ascending. [on_new key] runs for each key the directory
    did not hold. Heap records are written in key order, then every new
    or moved record reaches the directory in one {!Ode_index.Bptree.insert_sorted}. *)

val delete : db -> string -> unit

val iter_prefix : db -> ?txn:txn -> string -> (string -> string -> bool) -> unit
(** [iter_prefix db p f] visits entries whose key starts with [p] in key
    order; [f] returns [false] to stop. Streams through a B+tree cursor
    (O(1) memory, early exit stops page reads) unless the scanning
    transaction has pending writes under [p], in which case the matching
    directory entries are collected before any payload is fetched so the
    callback may safely interleave further writes against the same extent.
    [?txn] names the scanning transaction; omitted, [db.active] is
    consulted — fine on the writer domain, a race anywhere else, so reader
    domains must pass their own transaction. *)

val iter_prefix_keys : db -> ?txn:txn -> string -> (string -> bool) -> unit
(** Like {!iter_prefix} but yields keys only and never reads the heap: the
    scan's working set is the directory tree, not the records, so large
    extents don't evict record pages from the buffer pool. A yielded key is
    a candidate, not proof of a live record — callers must re-verify (e.g.
    with {!get}) before trusting it. Same pending-write fallback as
    {!iter_prefix}. *)
