(** The committed key-value store: a B+tree directory over logical keys
    (see {!Keys}). A record has two possible homes, chosen by its payload's
    size: a payload of at most {!inline_max} bytes lives in its directory
    leaf, and a larger one in the heap, with its rid in the leaf.

    This is the *committed* state only — transactions overlay it with their
    write set (see {!Store.read}). Keys are ordered, so class extents and
    index ranges scan in key order. All operations are idempotent with
    respect to crash-recovery replay: {!apply_sorted} tolerates a
    directory entry pointing at a dead or torn heap record, and every heap
    record carries its owning key, so a stale post-crash directory entry
    that aliases a reused (page, slot) address can never redirect an
    operation onto another key's record. *)

open Types

val inline_max : int
(** The largest payload, in bytes, kept in the directory leaf: 128. A
    constant of the store's format, not a setting. *)

val in_leaf : string -> int -> bool
(** [in_leaf key len]: whether [key]'s record with a payload of [len]
    bytes lives in its directory leaf. It does when [len] is at most
    {!inline_max} and key and value fit a B+tree entry. *)

(** A decoded directory value. On disk it is a one-byte tag followed by
    the payload ([Inline]) or by the rid as a varint page and a varint
    slot ([At]). *)
type entry = Inline of string | At of Ode_storage.Heap.rid

val encode_entry : entry -> string

val decode_entry : string -> entry
(** Raises [Codec.Corrupt] on an unknown tag or a malformed rid. *)

val entry_at : Ode_storage.Bigbytes.t -> int -> int -> entry
(** [entry_at b off len] decodes the directory value in the [len] bytes at
    [off] of [b], a pinned leaf or a cursor's copy of one: the reader shape
    {!Ode_index.Bptree.find_with} and {!Ode_index.Bptree.cursor_value}
    take. An inline payload is copied once, a rid decoded in place.
    Raises as {!decode_entry}. *)

val encode_record : string -> string -> string
(** [encode_record key payload] is the heap record of an out-of-line
    payload: the owning key, then the payload. *)

val payload_at : string -> Ode_storage.Bigbytes.t -> int -> int -> string option
(** [payload_at key b off len] is the payload of the heap record in the
    [len] bytes at [off] of [b] if [key] owns it, copied once, the reader
    shape {!Ode_storage.Heap.get_with} takes; [None] means the record
    belongs to another key (verification and stale-alias detection). The
    ownership check runs by offset arithmetic in place, and a malformed
    record yields [None] instead of raising. *)

val get : db -> string -> string option
(** An inline payload is read straight from the pinned leaf, and a hit
    allocates only the payload and its option; an out-of-line one costs
    one heap read more. *)

val apply_sorted :
  db ->
  (string * op) array ->
  skip:int * int ->
  on_new:(string -> unit) ->
  on_gone:(string -> unit) ->
  unit
(** [apply_sorted db ops ~skip:(i, j) ~on_new ~on_gone] is the store's
    one committed write: [(key, Put payload)] writes the record, [(key,
    Del)] drops the key's entry; keys are distinct and ascending, and
    [ops.(i)] to [ops.(j-1)] are left out (a write set's index entries,
    which sort together and go to the index tree). It finds each key's
    directory entry with one {!Ode_index.Bptree.find_ascending} pass for
    the deletes and one for the puts, a descent per leaf the keys fall
    in. [on_gone key] runs for each deleted key the
    directory held, [on_new key] for each written key it did not. The
    deleted keys' heap records are freed first, in key order, each only
    if its key owns it; then the written records are placed in key order.
    A record whose new payload crosses {!inline_max} moves between the
    leaf and the heap; the heap record it leaves is freed when the key
    owns it. Every delete and every changed directory value reach the
    tree in one {!Ode_index.Bptree.apply_sorted}. *)

val iter_rids : db -> (int -> int -> unit) -> unit
(** [iter_rids db f] calls [f page slot] for every rid held by an
    out-of-line directory entry, in key order: the heap records the
    directory can reach (recovery's orphan sweep). It decodes each rid
    where it lies in the cursor's copy of its leaf, and allocates nothing
    per entry. *)

val iter_prefix : db -> string -> (string -> string -> bool) -> unit
(** [iter_prefix db p f] visits the committed entries whose key starts
    with [p] in key order; [f] returns [false] to stop. Streams through a
    B+tree cursor (O(1) memory, early exit stops page reads) that copies
    each leaf as it reaches it, so the callback may write to the same
    extent: a transaction's writes go to its overlay, not the tree. *)

val iter_prefix_entries : db -> string -> (string -> entry -> bool) -> unit
(** Like {!iter_prefix} but yields each directory value as it stands: an
    inline payload, copied from the cursor's copy of its leaf, or the rid
    of an out-of-line one, which the heap serves only when the caller asks
    {!entry_payload}. The directory can hold an entry whose record died
    since (crash recovery may leave strays), so an [At] entry is a
    candidate until {!entry_payload} has read it. *)

val entry_payload : db -> string -> entry -> string option
(** The payload of [key]'s directory value: an inline one as it is, an
    out-of-line one read from the heap ([None] when the record is dead or
    another key's). *)
