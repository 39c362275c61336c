(** Disk-backed B+tree mapping byte-string keys to byte-string values.

    Keys are unique (putting an existing key replaces its value); callers
    needing duplicates append a discriminator to the key (see {!Key}).
    Puts and deletes reach the tree together, as one sorted batch
    ({!apply_sorted}). Deletion is lazy: entries are removed but nodes are
    not rebalanced, which is fine for the workloads this engine targets
    and keeps rids of sibling entries stable during scans.

    The tree owns its pager: page 0 is a header holding the root page number
    and the entry count. Every other page is one node in the [ODEBPT03]
    layout: a header, a sorted array of u16 entry offsets, the entries
    packed down from below the node's key prefix ([varint slen | suffix |
    varint vlen | value] in a leaf, [varint slen | suffix | u32 child] in
    an internal node, a key being the prefix followed by the suffix), and
    the prefix, which ends the node. A node's prefix is the longest common
    prefix of its fences, the separators that bound it in the levels
    above: every key routed to the node starts with it, so it is stored
    once per node (a leaf entry costs 4 bytes beside its suffix and value,
    slot included). The buffer pool is the only cache: lookups
    binary-search the pinned page in place, comparing stored key bytes
    where they lie, and inserts and deletes edit its bytes; a key string
    is built only where a key leaves the tree. *)

type t

val attach : Ode_storage.Buffer_pool.t -> t
(** Open the tree stored in the pool's disk, formatting an empty tree on an
    empty disk. Raises {!Ode_util.Codec.Corrupt} ["<file>: bad magic ..."]
    on a file of another format. *)

val insert : t -> string -> string -> unit
(** [insert t key value] is [apply_sorted t [| (key, Some value) |]]. *)

val apply_sorted : t -> (string * string option) array -> unit
(** [apply_sorted t ops] is the tree's one write: [(key, Some value)] puts
    the entry, replacing the value of a key already present, and
    [(key, None)] deletes the key, if present. Keys must be distinct and
    strictly ascending; applying the same batch twice leaves the tree as
    once (recovery replay relies on this). Raises [Invalid_argument],
    before touching the tree, if the keys are out of order or repeated, a
    key is empty, or a put's key+value exceeds {!max_entry} bytes.

    The batch is applied one leaf run at a time: the keys below one leaf's
    upper separator. Each run costs one descent, one edit of the leaf, one
    write of each node on the path that changed, and one header write,
    all inside one {!Ode_storage.Buffer_pool.with_no_flush} section, so a
    pressure flush never persists a half-applied run. The run's deletes
    leave the leaf first, in place; then its puts are merged in, so the
    result is that of every delete of the batch before every put. Deletes
    never merge or free a node (entries of sibling leaves keep their
    places during scans); a leaf they empty stays in the tree. A node that
    overflows is cut into the fewest pieces that fit, each sized with the
    prefix its own fences give, as even in bytes as entry boundaries
    allow: one insert into a full leaf halves it, and a long batch whose
    pieces' prefixes differ widely fills its leaves in order, nearly
    full. So does an append: a run of ascending keys past the last entry
    of its parent's last leaf, or a family append, a run whose new keys
    all land in one gap directly after the last new key of the run before
    it into the same leaf, when the two runs before it did the same (new
    objects' keys ahead of the keys of the next tag, batch after batch;
    random-order keys almost never chain so). The tree remembers that key
    per leaf in memory only, in a fixed table of 1,024 slots, so a
    reattached tree starts without it; a run of deletes alone leaves it
    as it was. An append fills its pieces in
    order up to its last new key, leaves the leaf's entries past it
    together, and also refills the leaf to its left when that one
    is at most three quarters full (as a leaf an append split left behind
    is: its keys kept the bytes they took before it had a prefix, or it
    is the left half of an even cut made before the appends were
    recognised). The counter [bptree.family_appends] counts the cuts of
    family appends. *)

val find : t -> string -> string option

val find_with : t -> string -> (Ode_storage.Bigbytes.t -> int -> int -> 'a) -> 'a option
(** [find_with t key read] is [Some (read page off len)] when [key] is
    present, where the value is the [len] bytes at [off] of the pinned
    leaf's [page], a buffer-pool frame outside the OCaml heap; [find] is
    [find_with t key Ode_storage.Bigbytes.sub_string]. [read] runs while
    the leaf is pinned, must not keep [page], and may raise (the leaf is
    unpinned first). A hit allocates only what [read] returns and its
    option. *)

val mem : t -> string -> bool

type ascending
(** A lookup for keys asked in ascending order: it keeps the leaf its
    last descent reached, and that leaf's upper fence. *)

val ascending : t -> ascending

val find_ascending : ascending -> string -> (Ode_storage.Bigbytes.t -> int -> int -> 'a) -> 'a option
(** [find_ascending a key read] is [find_with t key read]. A key at or
    above the key asked before it and below the upper fence of the leaf
    that one was found in is searched there: it costs a pin and no
    descent, and only a descent counts as an [index_probes]. Any other
    key (the first, one past the fence, one below the key before it, or
    any key once the tree has taken a batch since that leaf was found)
    descends from the root. So the keys of one sorted batch cost one
    descent per leaf they fall in. *)

type cursor
(** A streaming scan position: one seek, then leaf-chain walks on demand.
    O(1) memory — the cursor holds a copy of one leaf at a time, in a
    {!Ode_storage.Bigbytes.t} of its own, reused from leaf to leaf — and
    abandoning it early reads no further pages. On each leaf visit the
    cursor copies the bytes of the entries it will yield from that leaf
    (those within its bounds), so writes that edit the page in place
    between {!cursor_next} calls cannot reach an in-flight scan; entries
    committed behind the cursor's position may or may not be observed. *)

val cursor : t -> ?lo:string -> ?hi:string -> ?inclusive_hi:bool -> unit -> cursor
(** Seek to the first entry [>= lo] (tree start when omitted). The scan
    yields entries while [key < hi] ([<= hi] when [inclusive_hi]). *)

val cursor_prefix : t -> string -> cursor
(** Cursor over all keys starting with the given prefix. *)

val cursor_next : cursor -> (string * string) option
(** Next entry in key order, or [None] when the range is exhausted. *)

val cursor_next_key : cursor -> string option
(** Like {!cursor_next} but yields the key only and copies no value. *)

val cursor_step : cursor -> bool
(** Step to the next entry, for {!cursor_value} to read, without building
    its key: [false] when the range is exhausted. It allocates nothing. *)

val cursor_value : cursor -> (Ode_storage.Bigbytes.t -> int -> int -> 'a) -> 'a
(** [cursor_value cur read] applies [read] to the value bytes of the entry
    the cursor yielded last, in the cursor's copy of its leaf, as
    {!find_with} does: one reader serves both. Raises [Invalid_argument]
    before the first entry. *)

val iter_range :
  t -> ?lo:string -> ?hi:string -> ?inclusive_hi:bool -> (string -> string -> bool) -> unit
(** [iter_range t ~lo ~hi f] visits entries with [lo <= key < hi] (or
    [<= hi] when [inclusive_hi] is true) in key order; [f] returns [false]
    to stop early. Omitted bounds are open. *)

val iter_prefix : t -> string -> (string -> string -> bool) -> unit
(** Visit all entries whose key starts with the given prefix. *)

val iter_range_rev :
  t -> ?lo:string -> ?hi:string -> ?inclusive_hi:bool -> (string -> string -> bool) -> unit
(** Like {!iter_range} but in descending key order (top-down right-to-left
    walk; leaves carry no back pointers). *)

val iter_prefix_rev : t -> string -> (string -> string -> bool) -> unit

val count : t -> int
val height : t -> int
val page_count : t -> int

val pool : t -> Ode_storage.Buffer_pool.t
(** The buffer pool the tree lives in (tests and recovery tooling). *)

val flush : t -> unit
val max_entry : int

type fault = { msg : string; stopped : bool }
(** [stopped]: found mid-walk, which ended there, so {!check}'s [visit]
    did not see the entries past it. A chain past the last leaf, a page
    no node reaches and a wrong count are found once the walk is complete. *)

val check :
  ?visit:(string -> Ode_storage.Bigbytes.t -> int -> int -> unit) -> t -> (unit, fault) result
(** Structural check: each node's layout (entries packed in slot order, a
    zeroed free gap), its key prefix (exactly the common prefix of its
    fences), key order within and across nodes, every key between its
    node's fences, equal leaf depth, the entry count, and leaf chain
    completeness: followed from the leftmost leaf, the chain visits exactly
    the leaves of the tree walk, in key order, and ends at [next = 0].
    One walk reads each node once.

    [visit key page off len] runs on every entry of each leaf that passed,
    in key order, while the leaf is pinned: its value is the [len] bytes
    at [off] of [page], read in place as {!find_with} reads one. It must
    not keep [page]; what it raises ends the walk and passes through.
    Raises [Codec.Corrupt] on a node too rotten to read. *)
