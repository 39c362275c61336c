module Codec = Ode_util.Codec
module Pool = Ode_storage.Buffer_pool
module B = Ode_storage.Bigbytes

let c_index_probes = Ode_util.Stats.counter "index_probes"
let c_cursor_pages_read = Ode_util.Stats.counter "cursor_pages_read"
let c_leaf_writes = Ode_util.Stats.counter "bptree.leaf_writes"
let c_splits = Ode_util.Stats.counter "bptree.splits"
let c_family_appends = Ode_util.Stats.counter "bptree.family_appends"

let magic = "ODEBPT03"
let max_entry = 1024

(* Where the last run into the leaf at [mpage] left its new keys: the
   last of them, and [chain], the number of runs in a row, ending with
   that one, whose new keys all landed in one gap directly after the last
   new key of the run before. *)
type mark = { mpage : int; last : string; chain : int }

(* Page 0 is the tree's header, never a leaf. *)
let no_mark = { mpage = 0; last = ""; chain = 0 }

(* Marks are kept in a table of this many slots, a leaf's in slot [page
   mod marks_size]: a run into another leaf of the same slot loses it,
   which costs at most a family append not recognised until its chain
   builds again, and the memory they take stays fixed, whatever the size
   of the tree's file. *)
let marks_size = 1024

(* The buffer pool is the only cache of nodes: every read searches the
   pinned frame in place, and every write edits it. [marks] live in
   memory alone, so the page bytes do not depend on them, and a tree
   attached afresh starts without any. *)
type t = {
  pool : Pool.t;
  mutable root : int;
  mutable count : int;
  marks : mark array;
  mutable writes : int; (* batches applied, so an ascending lookup knows its leaf is stale *)
}

(* -- node layout (ODEBPT03) ---------------------------------------------------
   A node page is a slotted page. Its header:

     0  u8   kind: 0 leaf, 1 internal
     1  u16  entry count n
     3  u32  leaf: next leaf (0: none); internal: child 0
     7  u16  top: offset of the lowest entry byte
     9  u16  plen: length of the node's key prefix

   then n u16 slots, the entry offsets in key order. The prefix itself is
   the last [plen] bytes of the node, [node_end - plen, node_end). Entries
   fill [top, node_end - plen) from there down, entry 0 highest and each
   entry directly below the one before it, so a run of ascending inserts
   moves no bytes:

     leaf entry      varint slen | suffix | varint vlen | value
     internal entry  varint slen | suffix | u32 child

   An entry's key is the node's prefix followed by its suffix. The prefix
   is the longest common prefix of the node's fences, the two separators
   that bound it in the levels above (empty when either is open, on the
   tree's outer edges). Every key routed to a node lies between its
   fences and so starts with their common prefix, which is stored once
   per node rather than once per entry, as in Bayer and Unterauer's
   prefix B-trees. A node's fences change only when a split (or the
   refill of a leaf beside an append) rewrites it, and the rewrite gives
   each piece the prefix of the keys it was cut at.

   Internal child i+1 (the one in entry i) holds keys >= key i; child 0
   holds keys below key 0. Lengths are unsigned LEB128 varints in their
   shortest form, one byte under 128 (so a leaf entry costs 4 bytes beside
   its suffix and value, slot included), two up to [max_entry]. The free
   gap between the slots and [top] is all zero bytes, so a node's page
   bytes are a function of its contents and fences alone. All integers are
   little-endian. The disk layer's checksum trailer lies past [node_end]. *)

let kind_off = 0
let count_off = 1
let link_off = 3
let top_off = 7
let plen_off = 9
let slots_off = 11
let node_end = Ode_storage.Page.data_end

(* No descent is deeper than this in a well-formed tree (each level at
   least halves the pages below it); past it a rotten child pointer has
   made a cycle. *)
let max_depth = 64

let get_u32 b off = B.get_uint16_le b off lor (B.get_uint16_le b (off + 2) lsl 16)

let set_u32 b off n =
  B.set_uint16_le b off (n land 0xffff);
  B.set_uint16_le b (off + 2) ((n lsr 16) land 0xffff)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* The file a corruption message names. *)
let file t = Ode_storage.Disk.name (Pool.disk t.pool)

let is_leaf b = B.get b kind_off = '\000'
let count b = B.get_uint16_le b count_off
let link b = get_u32 b link_off
let top b = B.get_uint16_le b top_off
let plen b = B.get_uint16_le b plen_off
let slot b i = B.get_uint16_le b (slots_off + (2 * i))
let set_slot b i off = B.set_uint16_le b (slots_off + (2 * i)) off
let free b = top b - slots_off - (2 * count b)
let vsize n = if n < 0x80 then 1 else 2

(* The end of entry [p], where entry [p] would go were it inserted. *)
let entry_end b p = if p = 0 then node_end - plen b else slot b (p - 1)

(* A node's header, checked before anything else is read: the kind byte,
   slots that end at or before [top], and a prefix that starts at or
   after it, inside the node. *)
let check_header t b page =
  let k = Char.code (B.get b kind_off) in
  if k > 1 then corrupt "%s: page %d: bad node kind %d" (file t) page k;
  let top = top b in
  if slots_off + (2 * count b) > top || top > node_end then
    corrupt "%s: page %d: %d slots and entry region at %d overlap" (file t) page (count b) top;
  if top + plen b > node_end then
    corrupt "%s: page %d: a %d-byte key prefix overlaps the entry region at %d" (file t) page (plen b) top

(* -- reading entries in place -------------------------------------------------
   Entry fields are read from [b] at an offset found in a slot. Every length
   is checked against [lim], the end of the bytes the entry may use, so a
   rotten node raises [Codec.Corrupt] rather than read a neighbour's bytes
   or past the buffer. The same readers serve a page ([lim] = [node_end])
   and a cursor's copy of one. Nothing here allocates but [key_at]. *)

(* The length field at [off], which with the bytes it counts must end by
   [lim]. The one-byte case, almost every key and value, is checked inline;
   the rest goes through [long_len_at]. *)
let long_len_at b off lim =
  if off < 0 || off >= lim then corrupt "bptree: entry at %d outside its node (end %d)" off lim;
  let b0 = Char.code (B.get b off) in
  let n =
    if b0 < 0x80 then b0
    else begin
      if off + 1 >= lim then corrupt "bptree: length at %d overruns node end %d" off lim;
      let b1 = Char.code (B.get b (off + 1)) in
      if b1 = 0 || b1 >= 0x80 then corrupt "bptree: bad length field at %d" off;
      b0 land 0x7f lor (b1 lsl 7)
    end
  in
  if off + vsize n + n > lim then corrupt "bptree: field at %d overruns node end %d" off lim;
  n

let len_at b off lim =
  if off >= 0 && off < lim then
    let n = Char.code (B.get b off) in
    if n < 0x80 && off + 1 + n <= lim then n else long_len_at b off lim
  else long_len_at b off lim

let put_len b off n =
  if n < 0x80 then begin
    B.set b off (Char.chr n);
    off + 1
  end
  else begin
    B.set b off (Char.chr (n land 0x7f lor 0x80));
    B.set b (off + 1) (Char.chr (n lsr 7));
    off + 2
  end

(* The sign of comparing [key]'s bytes [ko, kend) with the [len] bytes at
   [pos] of [b], whose first [i] match and whose first [n] (the shorter
   length) are compared. Eight bytes at a time, as big-endian words
   compared unsigned, then byte by byte. The caller has checked
   [pos + len] against the node, so the unchecked reads are in bounds. *)
let rec compare_from key ko kend b pos len i n =
  if i + 8 <= n then
    let x = String.get_int64_be key (ko + i) and y = B.bswap64 (B.unsafe_get_int64_le b (pos + i)) in
    if Int64.equal x y then compare_from key ko kend b pos len (i + 8) n
    else compare (Int64.sub x Int64.min_int) (Int64.sub y Int64.min_int)
  else if i = n then compare (kend - ko) len
  else
    let c = Char.code (String.unsafe_get key (ko + i)) - Char.code (B.unsafe_get b (pos + i)) in
    if c <> 0 then c else compare_from key ko kend b pos len (i + 1) n

(* How [key] stands against the prefix of the checked node [b]: 0 when it
   starts with it, else the sign of comparing [key] with every key of the
   node. *)
let against_prefix key b =
  let pl = plen b in
  if pl = 0 then 0
  else
    let kend = if String.length key < pl then String.length key else pl in
    compare_from key 0 kend b (node_end - pl) pl 0 kend

(* [key], which starts with a node's [pl]-byte prefix, against the key of
   the entry at [off]: the rest of [key] against the entry's suffix. *)
let compare_key key pl b off lim =
  let len = len_at b off lim in
  let kl = String.length key in
  compare_from key pl kl b (off + vsize len) len 0 (if kl - pl < len then kl - pl else len)

(* Any [key] against the key of the entry at [off] of the checked node [b]. *)
let compare_full key b off =
  match against_prefix key b with 0 -> compare_key key (plen b) b off node_end | c -> c

(* The sign of comparing the [l1] bytes at [p1] of [b] with the [l2] at
   [p2], whose first [i] match and whose first [n] (the shorter length)
   are compared. *)
let rec compare_in b p1 l1 p2 l2 i n =
  if i = n then compare l1 l2
  else
    let c = Char.code (B.unsafe_get b (p1 + i)) - Char.code (B.unsafe_get b (p2 + i)) in
    if c <> 0 then c else compare_in b p1 l1 p2 l2 (i + 1) n

(* The keys of the entries at [off1] and [off2] of the node [b], compared
   where they lie: their suffixes, as they share the node's prefix. *)
let compare_entries b off1 off2 =
  let l1 = len_at b off1 node_end and l2 = len_at b off2 node_end in
  compare_in b (off1 + vsize l1) l1 (off2 + vsize l2) l2 0 (if l1 < l2 then l1 else l2)

(* The whole key of the entry at [off] of [b], whose node's prefix is the
   [pl] bytes at [pre] of [b]: the one place a key string is built, where
   a key leaves the tree. *)
let key_at b pre pl off lim =
  let len = len_at b off lim in
  if pl = 0 then B.sub_string b (off + vsize len) len
  else
  let s = Bytes.create (pl + len) in
  B.blit_to_bytes b pre s 0 pl;
  B.blit_to_bytes b (off + vsize len) s pl len;
  Bytes.unsafe_to_string s

let node_key b off =
  let pl = plen b in
  key_at b (node_end - pl) pl off node_end

(* A leaf entry's value and size; an internal entry's child and size. *)
let value_off b off lim =
  let klen = len_at b off lim in
  off + vsize klen + klen

let leaf_size b off lim =
  let voff = value_off b off lim in
  let vlen = len_at b voff lim in
  voff + vsize vlen + vlen - off

let child_of b off lim =
  let coff = value_off b off lim in
  if coff + 4 > lim then corrupt "bptree: child at %d overruns node end %d" coff lim;
  get_u32 b coff

let internal_size b off lim = value_off b off lim + 4 - off

(* Binary search of the node [b]'s entries [lo, hi) for [key], which
   starts with its [pl]-byte prefix: the index if present, else
   [-(i + 1)] for the insertion point [i]. *)
let rec search key pl b lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_key key pl b (slot b mid) node_end in
    if c = 0 then mid else if c < 0 then search key pl b lo mid else search key pl b (mid + 1) hi

(* A key that lacks the node's prefix sorts before or after all of its
   entries. *)
let search_node key b lo =
  let n = count b in
  let c = against_prefix key b in
  if c = 0 then search key (plen b) b lo n else if c < 0 then -(lo + 1) else -((if n > lo then n else lo) + 1)

(* The first entry from [lo] on that is [>= key], or [> key] when
   [past]. *)
let seek key b lo ~past =
  let i = search_node key b lo in
  if i < 0 then -(i + 1) else if past then i + 1 else i

(* Child [i] of an internal node: 0 from the header, then entry [i-1]'s. *)
let child_at b i = if i = 0 then link b else child_of b (slot b (i - 1)) node_end

(* Index of the child to descend into for [key]: the number of keys
   [<= key]. *)
let child_index key b = seek key b 0 ~past:true

(* -- pinning nodes ------------------------------------------------------------- *)

(* Pin a node page, checked: a pointer outside the file means the node
   that holds it is rotten, and a descent past [max_depth] went round a
   cycle. Both are corruption, not out-of-range programming errors. *)
let pin_node t page depth =
  if page < 1 || page >= Pool.page_count t.pool then
    corrupt "%s: node pointer %d beyond end of file (%d pages)" (file t) page (Pool.page_count t.pool);
  if depth > max_depth then corrupt "%s: page %d: descent deeper than %d" (file t) page max_depth;
  let f = Pool.pin t.pool page in
  match check_header t (Pool.data f) page with
  | () -> f
  | exception e ->
      Pool.unpin t.pool f;
      raise e

(* [fn] over the checked, pinned node at [page]. *)
let with_node t page depth fn =
  let f = pin_node t page depth in
  match fn (Pool.data f) with
  | v ->
      Pool.unpin t.pool f;
      v
  | exception e ->
      Pool.unpin t.pool f;
      raise e

(* Pin the leaf whose range holds [key], descending from [page]; the
   caller unpins it. *)
let rec pin_leaf t key page depth =
  let f = pin_node t page depth in
  let b = Pool.data f in
  if is_leaf b then f
  else begin
    let child =
      match child_at b (child_index key b) with
      | c ->
          Pool.unpin t.pool f;
          c
      | exception e ->
          Pool.unpin t.pool f;
          raise e
    in
    pin_leaf t key child (depth + 1)
  end

(* [fn] over the pinned leaf whose range holds [key]. *)
let with_leaf t key fn =
  let f = pin_leaf t key t.root 0 in
  match fn f (Pool.data f) with
  | v ->
      Pool.unpin t.pool f;
      v
  | exception e ->
      Pool.unpin t.pool f;
      raise e

(* -- header ----------------------------------------------------------------- *)

(* Page 0: magic, u32 root, i64 count, zeros to the end of the page. *)
let write_header t =
  Pool.with_page t.pool 0 (fun f ->
      let data = Pool.data f in
      if B.sub_string data 0 8 <> magic then begin
        B.fill data 0 Ode_storage.Page.size '\000';
        B.blit_from_string magic 0 data 0 8
      end;
      set_u32 data 8 t.root;
      B.set_int64_le data 12 (Int64.of_int t.count);
      Pool.mark_dirty t.pool f)

(* -- writing nodes ------------------------------------------------------------- *)

(* A fresh page, zeroed and dirty in the pool until a flush writes it. *)
let alloc_page t =
  let f = Pool.allocate t.pool in
  Pool.unpin t.pool f;
  Pool.page_no f

let rec common_from a b i n =
  if i < n && String.unsafe_get a i = String.unsafe_get b i then common_from a b (i + 1) n else i

let common_length a b = common_from a b 0 (min (String.length a) (String.length b))

(* The key prefix of a node with fences [lo] and [hi]: their longest
   common prefix, empty when either is open. *)
let fence_prefix lo hi =
  match (lo, hi) with Some a, Some b -> String.sub a 0 (common_length a b) | _ -> ""

(* The entries of a node being rewritten, in key order, each named by an
   int of [codes], so that naming them builds no block: [2 * off] is the
   entry at offset [off] of the source image [src], [2 * off + 1] the one
   at [off] of [src2] (a left neighbour taken in), and [-(j + 1)] new
   entry [j], of a leaf the put [ops.(j)], of an internal node the
   separator [seps.(j)] and the child right of it. *)
type items = {
  src : B.t;
  src2 : B.t;
  ops : (string * string option) array;
  seps : (string * int) array;
  codes : int array;
}

let no_items = { src = B.empty; src2 = B.empty; ops = [||]; seps = [||]; codes = [||] }
let image it c = if c land 1 = 0 then it.src else it.src2

(* New leaf entry [j]'s key and value. *)
let put_of it j = match it.ops.(j) with k, Some v -> (k, v) | _, None -> invalid_arg "Bptree: a delete as an item"

(* The size of an entry or separator for key [k] in a node whose prefix is
   [pl] bytes long, which [k] starts with. *)
let entry_size pl k v =
  let kl = String.length k - pl in
  vsize kl + kl + vsize (String.length v) + String.length v

let sep_size pl k =
  let kl = String.length k - pl in
  vsize kl + kl + 4

let old_size ~leaf src off = if leaf then leaf_size src off node_end else internal_size src off node_end

(* An item's size with its whole key, slot included. In a node with a
   [pl]-byte prefix it takes [pl] bytes less, or a byte or more less still
   where its length field shrinks, so [pl] plus the items' whole sizes
   less [pl] each bound the bytes of a node. *)
let whole_size ~leaf it c =
  if c >= 0 then begin
    let src = image it c and off = c lsr 1 in
    let klen = len_at src off node_end in
    let full = klen + plen src in
    2 + old_size ~leaf src off - vsize klen - klen + vsize full + full
  end
  else if leaf then
    let k, v = put_of it (-c - 1) in
    2 + entry_size 0 k v
  else 2 + sep_size 0 (fst it.seps.(-c - 1))

let item_key ~leaf it c =
  if c >= 0 then node_key (image it c) (c lsr 1) else if leaf then fst it.ops.(-c - 1) else fst it.seps.(-c - 1)

let item_child it c = if c >= 0 then child_of (image it c) (c lsr 1) node_end else snd it.seps.(-c - 1)

(* Write the suffix of [k] past a [pl]-byte prefix, with its length, at
   [off]; returns the offset past it. *)
let put_suffix b off pl k =
  let kl = String.length k - pl in
  let p = put_len b off kl in
  B.blit_from_string k pl b p kl;
  p + kl

let put_entry b off pl k v =
  let p = put_len b (put_suffix b off pl k) (String.length v) in
  B.blit_from_string v 0 b p (String.length v)

let put_sep b off pl k child = set_u32 b (put_suffix b off pl k) child

(* Write items [a .. z-1] of [it] as the whole node at [page], whose key
   prefix is [prefix]: each entry below the one before it, then the
   prefix, the slots, the header and a zeroed gap. A source entry's key
   loses the bytes by which [prefix] is longer than its source node's, or
   gains those by which it is shorter, from the source's prefix. *)
let fill t page ~leaf ~link ~prefix it a z =
  if leaf then Ode_util.Stats.incr c_leaf_writes;
  let pl = String.length prefix in
  Pool.with_page t.pool page (fun f ->
      let b = Pool.data f in
      let e = ref (node_end - pl) in
      for x = a to z - 1 do
        let c = it.codes.(x) in
        (if c >= 0 then begin
            let src = image it c and off = c lsr 1 in
            let size = old_size ~leaf src off and spl = plen src in
            if pl = spl then begin
              e := !e - size;
              B.blit src off b !e size
            end
            else begin
              let klen = len_at src off node_end in
              let kl = klen + spl - pl in
              if kl < 0 then corrupt "%s: page %d: a key lacks its node's prefix" (file t) page;
              let rest = off + vsize klen + klen in
              let rlen = off + size - rest in
              e := !e - (vsize kl + kl + rlen);
              let p = put_len b !e kl in
              if pl < spl then begin
                B.blit src (node_end - spl + pl) b p (spl - pl);
                B.blit src (off + vsize klen) b (p + spl - pl) klen
              end
              else B.blit src (off + vsize klen + pl - spl) b p kl;
              B.blit src rest b (p + kl) rlen
            end
          end
          else if leaf then begin
            let k, v = put_of it (-c - 1) in
            e := !e - entry_size pl k v;
            put_entry b !e pl k v
          end
          else begin
            let k, child = it.seps.(-c - 1) in
            e := !e - sep_size pl k;
            put_sep b !e pl k child
          end);
        set_slot b (x - a) !e
      done;
      let gap = slots_off + (2 * (z - a)) in
      assert (gap <= !e);
      B.fill b gap (!e - gap) '\000';
      B.blit_from_string prefix 0 b (node_end - pl) pl;
      B.set b kind_off (if leaf then '\000' else '\001');
      B.set_uint16_le b count_off (z - a);
      set_u32 b link_off link;
      B.set_uint16_le b top_off !e;
      B.set_uint16_le b plen_off pl;
      Pool.mark_dirty t.pool f)

(* Cut points that split the items whose weights have the prefix sums
   [psum] (item [i] weighs [psum.(i+1) - psum.(i)] bytes) into the fewest
   pieces of [start] or more that fit, as even in bytes as item boundaries
   allow: cut [j] of [p] lands on the item boundary nearest [j/p] of the
   bytes. Leaves ([promote] false) cut between items: piece [j] holds
   items [c.(j-1), c.(j)). Internal nodes ([promote] true) hand the item
   at each cut up to the parent: piece [j] holds items [c.(j-1)+1, c.(j)).
   Every piece holds at least one item. [fits a z] says whether items
   [a, z) fit one node. [None] when no cuts into [upto] pieces or fewer
   fit. *)
let cuts ~promote ~fits ~start ~upto psum =
  let m = Array.length psum - 1 in
  let total = psum.(m) in
  let skip = if promote then 1 else 0 in
  let rec attempt p =
    if p > upto then None
    else begin
      (* p pieces need p items, plus p-1 promoted ones *)
      assert (p + (skip * (p - 1)) <= m);
      let c = Array.make (p - 1) 0 in
      let first = ref 0 and ok = ref true in
      for j = 1 to p - 1 do
        let target = total * j / p in
        let lo = !first + 1 and hi = m - ((1 + skip) * (p - j)) in
        let x = ref lo in
        while !x < hi && psum.(!x + 1) <= target do
          incr x
        done;
        if !x < hi && target - psum.(!x) > psum.(!x + 1) - target then incr x;
        ok := !ok && fits !first !x;
        c.(j - 1) <- !x;
        first := !x + skip
      done;
      if !ok && fits !first m then Some c else attempt (p + 1)
    end
  in
  attempt start

(* Cut points that fill leaf pieces left to right, each as far as [fits]
   allows, and leave the remainder to the last: the fewest pieces there
   can be, as a piece's bytes only grow as it takes in the next item, and
   only shrink as it gives up its first. Items [brk, m) join the piece
   before them only when all of them fit there, and otherwise start a
   piece of their own. *)
let fill_cuts ~fits ~brk m =
  let c = ref [] and first = ref 0 in
  for z = 1 to m - 1 do
    if not (fits !first (z + 1)) || (z = brk && not (fits !first m)) then begin
      c := z :: !c;
      first := z
    end
  done;
  Array.of_list (List.rev !c)

(* Write [items] as the node whose fences are [lo] and [hi], on the pages
   [homes] (one page, or two when a leaf's left neighbour takes part in
   the run), cut into pieces on fresh pages beyond them when they
   overflow. A leaf's pieces are chained ahead of [link], the next leaf;
   an internal node's first piece takes [link] as child 0 and each later
   piece the child of the separator promoted before it. Each piece's
   prefix is the common prefix of its own fences, the keys it was cut at
   (or [lo] and [hi] at the ends), and it is sized with it: a piece of
   items [a, z) with a [pl]-byte prefix takes at most [pl] more than
   their whole sizes less [pl] each. Returns the separator and page of
   each piece past the first, for the parent to route.

   A node that overflows into two pieces, as one insert into a full node
   does, is cut evenly. A leaf that overflows into more, as a batch does,
   is cut evenly into the fewest pieces filling them in order gives, or
   one more, and filled in order where even that does not fit, as in a
   long batch whose pieces' prefixes differ widely. When [append] is
   [Some e], items [0, e) end with an append, new entries where the next
   ones are expected to land, and they are filled in order, so the leaves
   they leave behind are full: the next append lands in the piece that
   holds item [e - 1], never in them. Items [e, m), the leaf's entries
   past the append, join that piece when they fit there and otherwise
   take one piece of their own. *)
let write_items ?append t homes ~leaf ~link ~lo ~hi it =
  let m = Array.length it.codes in
  let usum = Array.make (m + 1) 0 in
  for x = 0 to m - 1 do
    usum.(x + 1) <- usum.(x) + whole_size ~leaf it it.codes.(x)
  done;
  let bytes pl a z = pl + usum.(z) - usum.(a) - ((z - a) * pl) in
  let prefix = fence_prefix lo hi in
  if List.length homes = 1 && bytes (String.length prefix) 0 m <= node_end - slots_off then begin
    fill t (List.hd homes) ~leaf ~link ~prefix it 0 m;
    []
  end
  else begin
    (* Whole keys, for the fences of the pieces: item [a] (leaf) or the
       promoted [a - 1] (internal) bounds a piece from [a] below, item [z]
       one up to [z] above. *)
    let keys = Array.make m "" and skip = if leaf then 0 else 1 in
    (* Built when first asked for: keys are never empty. *)
    let key x =
      if String.length keys.(x) = 0 then keys.(x) <- item_key ~leaf it it.codes.(x);
      keys.(x)
    in
    let prefix_length a z =
      if (a = 0 && lo = None) || (z = m && hi = None) then 0
      else
        common_length
          (if a = 0 then Option.get lo else key (a - skip))
          (if z = m then Option.get hi else key z)
    in
    let fits a z = bytes (prefix_length a z) a z <= node_end - slots_off in
    let c =
      match if append <> None then None else cuts ~promote:(not leaf) ~fits ~start:2 ~upto:2 usum with
      | Some c -> c
      | None when not leaf -> Option.get (cuts ~promote:true ~fits ~start:3 ~upto:m usum)
      | None ->
          let brk = Option.value append ~default:m in
          let filled = fill_cuts ~fits ~brk m in
          (* Two homes take two pieces, however few items they hold. *)
          let filled =
            if Array.length filled = 0 && List.length homes = 2 then [| min brk (m - 1) |]
            else filled
          in
          if append <> None then filled
          else begin
            (* Even cuts into as many pieces as [filled], or one more,
               weigh each item under the prefix of its piece in [filled]:
               pieces' prefixes differ, and those on the tree's outer
               edges have none, so whole sizes would not share out the
               bytes each piece takes. Keys a batch adds to random places
               keep room in every piece for the keys that follow. *)
            let eff = Array.make (m + 1) 0 in
            let a = ref 0 in
            Array.iter
              (fun z ->
                let pl = prefix_length !a z in
                for x = !a to z - 1 do
                  eff.(x + 1) <- eff.(x) + usum.(x + 1) - usum.(x) - pl
                done;
                a := z)
              (Array.append filled [| m |]);
            let p = Array.length filled + 1 in
            Option.value (cuts ~promote:false ~fits ~start:p ~upto:(p + 1) eff) ~default:filled
          end
    in
    let p = Array.length c + 1 in
    assert (p >= List.length homes);
    let first j = if j = 0 then 0 else c.(j - 1) + skip in
    let stop j = if j = p - 1 then m else c.(j) in
    let homes = Array.of_list homes in
    let pages = Array.init p (fun j -> if j < Array.length homes then homes.(j) else alloc_page t) in
    Ode_util.Stats.add c_splits (p - Array.length homes);
    for j = 0 to p - 1 do
      let link =
        if leaf then if j = p - 1 then link else pages.(j + 1)
        else if j = 0 then link
        else item_child it it.codes.(c.(j - 1))
      in
      let lo = if j = 0 then lo else Some (key c.(j - 1))
      and hi = if j = p - 1 then hi else Some (key c.(j)) in
      fill t pages.(j) ~leaf ~link ~prefix:(fence_prefix lo hi) it (first j) (stop j)
    done;
    List.init (p - 1) (fun j -> (key c.(j), pages.(j + 1)))
  end

(* -- in-place leaf edits ------------------------------------------------------- *)

(* Insert entry (k, v), [k] starting with the prefix of [pl] bytes, at
   index [p] of the leaf [b], which has room for it and its slot: entries
   [p..] move down by its size, and their slots shift right by one. *)
let insert_at b p pl k v =
  let n = count b and top0 = top b in
  let sz = entry_size pl k v in
  let e = entry_end b p in
  if e < top0 || e > node_end then corrupt "bptree: entry %d ends at %d, outside its node" p e;
  B.blit b top0 b (top0 - sz) (e - top0);
  put_entry b (e - sz) pl k v;
  for q = p to n - 1 do
    set_slot b q (slot b q - sz)
  done;
  B.blit b (slots_off + (2 * p)) b (slots_off + (2 * (p + 1))) (2 * (n - p));
  set_slot b p (e - sz);
  B.set_uint16_le b count_off (n + 1);
  B.set_uint16_le b top_off (top0 - sz)

(* Remove entry [p] of the leaf [b]: entries [p+1..] move up by its size,
   their slots shift left, and the bytes freed join the zeroed gap. *)
let remove_at b p =
  let n = count b and top0 = top b in
  let off = slot b p in
  let sz = leaf_size b off node_end in
  if off < top0 then corrupt "bptree: entry %d at %d lies in the free gap" p off;
  B.blit b top0 b (top0 + sz) (off - top0);
  B.fill b top0 sz '\000';
  for q = p + 1 to n - 1 do
    set_slot b q (slot b q + sz)
  done;
  B.blit b (slots_off + (2 * (p + 1))) b (slots_off + (2 * p)) (2 * (n - 1 - p));
  set_slot b (n - 1) 0;
  B.set_uint16_le b count_off (n - 1);
  B.set_uint16_le b top_off (top0 + sz)

(* -- public: lookup ----------------------------------------------------------- *)

(* [read] over the value of [key] in the pinned leaf [f], which it
   unpins. Written out rather than through [with_leaf], whose closure
   would allocate: a hit allocates only what [read] returns and its
   option. *)
let read_leaf t f key read =
  match
    let b = Pool.data f in
    let i = search_node key b 0 in
    if i < 0 then None
    else
      let voff = value_off b (slot b i) node_end in
      let vlen = len_at b voff node_end in
      Some (read b (voff + vsize vlen) vlen)
  with
  | v ->
      Pool.unpin t.pool f;
      v
  | exception e ->
      Pool.unpin t.pool f;
      raise e

let find_with t key read =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.find";
  read_leaf t (pin_leaf t key t.root 0) key read

let find t key = find_with t key B.sub_string

let mem t key = find t key <> None

(* -- public: writes ----------------------------------------------------------- *)

(* A node's fence as the descent found it: the tree's edge, or the key of
   entry [e] of the internal node at [page], an ancestor, which nothing
   writes before the run below it returns. The key is read only where a
   split, or a run of more than one key, needs it. *)
type fence = Edge | Sep_of of int * int

let fence_key t = function
  | Edge -> None
  | Sep_of (page, e) -> Some (with_node t page 0 (fun b -> node_key b (slot b e)))

(* An ascending lookup remembers the leaf its last descent reached, the
   leaf's upper fence ([shi], [None] on the tree's right edge), the key
   asked last, and the tree's write count then. A key at or above the
   last, below the fence, of an unwritten tree, lies in that leaf: it is
   searched there without a descent. *)
type ascending = {
  st : t;
  mutable spage : int; (* 0: no descent yet *)
  mutable shi : string option;
  mutable slast : string;
  mutable swrites : int;
}

let ascending t = { st = t; spage = 0; shi = None; slast = ""; swrites = 0 }

(* Pin the leaf whose range holds [key], descending from [page], and
   return it with its upper fence: the separator right of the child
   taken at the deepest level that has one. *)
let rec pin_leaf_fenced t key page depth hi =
  let f = pin_node t page depth in
  let b = Pool.data f in
  if is_leaf b then (f, fence_key t hi)
  else begin
    let child, hi =
      match
        let ci = child_index key b in
        (child_at b ci, if ci < count b then Sep_of (page, ci) else hi)
      with
      | r ->
          Pool.unpin t.pool f;
          r
      | exception e ->
          Pool.unpin t.pool f;
          raise e
    in
    pin_leaf_fenced t key child (depth + 1) hi
  end

let find_ascending a key read =
  let t = a.st in
  let f =
    if
      a.spage <> 0 && a.swrites = t.writes
      && String.compare key a.slast >= 0
      && match a.shi with None -> true | Some h -> String.compare key h < 0
    then pin_node t a.spage 0
    else begin
      Ode_util.Stats.incr c_index_probes;
      Ode_util.Trace.instant ~cat:"index" "bptree.find";
      let f, hi = pin_leaf_fenced t key t.root 0 Edge in
      a.spage <- Pool.page_no f;
      a.shi <- hi;
      a.swrites <- t.writes;
      f
    end
  in
  a.slast <- key;
  read_leaf t f key read

(* A leaf at most three quarters full, whose entries an append to its
   right neighbour may take in. *)
let roomy b = 4 * free b >= node_end - slots_off

(* How many runs in a row must each put their new keys in one gap
   directly after the last new key of the run before for an overflowing
   one to count as a family append. A key in a random order lands there
   about once in as many runs into its leaf as the leaf has entries, and
   the versions of one object a couple of times in a row, while the
   ascending keys of a family, such as the new objects of a class ahead
   of the keys of the next tag, do so run after run. Over 10 seeds of
   random single inserts into leaves that hold about 9, 37 and 240
   entries when full, 1 took 2,047 of 26,031 cuts for family appends, 2
   took 211 and 3 took 32, all in the leaves of 9. *)
let family_chain = 3

(* Apply the leaf run [ops.(i) .. ops.(stop-1)] to the pinned leaf [b] at
   [page], whose fences are [lo] and [hi]. Its deletes ([None]) come out
   of the page first, in place, so its puts meet the leaf as a batch of
   every delete before every put would leave it. A run whose puts fit (a
   run of deletes alone among them) is edited into the page in place; one
   that overflows is merged with a copy of the leaf's entries and cut
   into pieces. The cut is even unless the run is
   an append ([write_items]' [append]): its new keys all sort after the
   last entry of a leaf that is its parent's [last] child, where ascending
   keys keep landing, or it is a family append, whose new keys all land in one
   gap directly after the last new key of the run before, as the new keys
   of the runs before it did ({!family_chain} runs in a row, counted in
   the leaf's [mark]). An append fills the pieces in order up to its last
   new key and leaves the entries past it together. It also takes in the
   entries of the leaf's left neighbour [left] (its page and lower fence)
   when that leaf is roomy. The neighbour is most often the piece the
   previous append split left behind, or the left half of an even cut
   made before the appends were recognised: its entries filled a page
   under this leaf's prefix, short as the leaf's upper fence is far, and
   take less room under the longer prefix the piece got, while no later
   key lands in it; this refills it. The leaf that holds the run's last
   new key takes its mark. Returns the pieces' (separator, page) pairs,
   and whether the first piece is the left neighbour's. *)
let leaf_run t page b ops i stop ~last ~lo ~hi ~left =
  (* The run lies between the leaf's fences, so every key starts with its
     prefix: the first and the last do, and so every key between them. *)
  if against_prefix (fst ops.(i)) b <> 0 || against_prefix (fst ops.(stop - 1)) b <> 0 then
    corrupt "%s: page %d: a key routed to the leaf lies outside it" (file t) page;
  let pl = plen b in
  for x = i to stop - 1 do
    match ops.(x) with
    | k, None ->
        let p = search_node k b 0 in
        if p >= 0 then begin
          remove_at b p;
          t.count <- t.count - 1
        end
    | _, Some _ -> ()
  done;
  let puts f =
    for x = i to stop - 1 do
      match ops.(x) with k, Some v -> f x k v | _, None -> ()
    done
  in
  (* Room the puts need, applied key by key: a new entry and its slot, or
     a value's growth. Shrinking values free room only for later keys.
     Also where the new keys land: the index in [ops] of the last one
     ([fresh], -1 when every key replaces an entry), the insertion point
     of the first ([gap]) and whether all share it. *)
  let need = ref 0 and peak = ref 0 and from = ref 0 in
  let fresh = ref (-1) and fresh_n = ref 0 and gap = ref 0 and one_gap = ref true in
  puts (fun x k v ->
      let p = search_node k b !from in
      if p >= 0 then begin
        need := !need + entry_size pl k v - leaf_size b (slot b p) node_end;
        from := p + 1
      end
      else begin
        need := !need + 2 + entry_size pl k v;
        from := -(p + 1);
        incr fresh_n;
        if !fresh < 0 then gap := !from else if !from <> !gap then one_gap := false;
        fresh := x
      end;
      if !need > !peak then peak := !need);
  let chain =
    if !fresh < 0 || not !one_gap || !gap = 0 then 0
    else
      let m = t.marks.(page mod marks_size) in
      if m.mpage = page && compare_full m.last b (slot b (!gap - 1)) = 0 then m.chain + 1 else 0
  in
  let mark home =
    if !fresh >= 0 then t.marks.(home mod marks_size) <- { mpage = home; last = fst ops.(!fresh); chain }
  in
  if !peak <= free b then begin
    Ode_util.Stats.incr c_leaf_writes;
    let from = ref 0 in
    puts (fun _ k v ->
        let p = search_node k b !from in
        let p =
          if p >= 0 then begin
            remove_at b p;
            p
          end
          else begin
            t.count <- t.count + 1;
            -(p + 1)
          end
        in
        insert_at b p pl k v;
        from := p + 1);
    mark page;
    ([], false)
  end
  else begin
    let src = B.sub b 0 node_end in
    let n = count src in
    (* A tail append: the run's new keys all sort after the last entry of
       a leaf that is the last child of its parent, where ascending keys
       keep landing. A random key also lands past a leaf's last entry now
       and then, but rarely in a last child, so random inserts keep the
       even cut. So does a run into an empty leaf, such as a first batch,
       which says nothing about where later keys land. *)
    let tail = last && n > 0 && !one_gap && !gap = n in
    let family = (not tail) && chain >= family_chain in
    if family then Ode_util.Stats.incr c_family_appends;
    let append = tail || family in
    let lo = fence_key t lo and hi = fence_key t hi in
    let neighbour =
      match left with
      | Some (lpage, llo) when append ->
          with_node t lpage 0 (fun lb ->
              if is_leaf lb && link lb = page && roomy lb then Some (lpage, llo, B.sub lb 0 node_end)
              else None)
      | _ -> None
    in
    (* The items in key order: the neighbour's entries, then the leaf's
       merged with the run's puts, a put replacing the entry of its key;
       [m] so far, and [e], the count up to and including the run's last
       new entry. *)
    let lsrc, ln = match neighbour with Some (_, _, l) -> (l, count l) | None -> (src, 0) in
    let codes = Array.make (ln + n + !fresh_n) 0 in
    let m = ref 0 and e = ref 0 and a = ref 0 in
    let code c =
      codes.(!m) <- c;
      incr m
    in
    for q = 0 to ln - 1 do
      code ((2 * slot lsrc q) + 1)
    done;
    for x = i to stop - 1 do
      match ops.(x) with
      | k, Some _ ->
          let p = search_node k src !a in
          let at = if p >= 0 then p else -(p + 1) in
          for q = !a to at - 1 do
            code (2 * slot src q)
          done;
          code (-(x + 1));
          if p < 0 then t.count <- t.count + 1;
          if x = !fresh then e := !m;
          a := if p >= 0 then p + 1 else at
      | _, None -> ()
    done;
    for q = !a to n - 1 do
      code (2 * slot src q)
    done;
    assert (!m = Array.length codes);
    let items = { src; src2 = lsrc; ops; seps = [||]; codes } in
    let homes, lo, merged =
      match neighbour with
      | Some (lpage, llo, _) -> ([ lpage; page ], fence_key t llo, true)
      | None -> ([ page ], lo, false)
    in
    let append = if append then Some !e else None in
    let ups = write_items ?append t homes ~leaf:true ~link:(link src) ~lo ~hi items in
    if !fresh >= 0 then begin
      let k = fst ops.(!fresh) in
      mark (List.fold_left (fun home (sep, p) -> if String.compare sep k <= 0 then p else home) (List.hd homes) ups)
    end;
    (ups, merged)
  end

(* Insert [ups], pieces of child [ci]'s former node, after child [ci] of
   the internal node at [page], whose fences are [lo] and [hi]. When
   [merged], the pieces are those of children [ci - 1] and [ci] together,
   the first on child [ci - 1]'s page: the separator between the two
   goes, and the pieces' take its place. *)
let insert_ups t page ci ups ~merged ~lo ~hi =
  let lo = fence_key t lo and hi = fence_key t hi in
  let src = with_node t page 0 (fun b -> B.sub b 0 node_end) in
  let n = count src in
  let kept = if merged then ci - 1 else ci in
  let seps = Array.of_list ups in
  let codes =
    Array.concat
      [
        Array.init kept (fun q -> 2 * slot src q);
        Array.init (Array.length seps) (fun j -> -(j + 1));
        Array.init (n - ci) (fun q -> 2 * slot src (ci + q));
      ]
  in
  write_items t [ page ] ~leaf:false ~link:(link src) ~lo ~hi { no_items with src; src2 = src; seps; codes }

(* Apply one leaf run from [ops.(i)] below [page], whose fences are [lo]
   and [hi] (so its keys are all below [hi]), and which is its parent's
   [last] child (the root counts as one), right of the node [left] under
   the same parent, if any. Returns the
   index past the run, the (separator, page) pairs of the pieces this
   node was cut into, for the parent to route, and whether they took in
   the left neighbour. *)
let rec apply_run t page ops i ~lo ~hi ~last ~left depth =
  let f = pin_node t page depth in
  let b = Pool.data f in
  if is_leaf b then begin
    (* The descent routed [ops.(i)] here, below [hi]. *)
    match
      let stop = ref (i + 1) in
      if !stop < Array.length ops then begin
        let h = fence_key t hi in
        while
          !stop < Array.length ops
          && match h with Some h -> String.compare (fst ops.(!stop)) h < 0 | None -> true
        do
          incr stop
        done
      end;
      (!stop, leaf_run t page b ops i !stop ~last ~lo ~hi ~left)
    with
    | stop, (ups, merged) ->
        Pool.mark_dirty t.pool f;
        Pool.unpin t.pool f;
        (stop, ups, merged)
    | exception e ->
        Pool.unpin t.pool f;
        raise e
  end
  else begin
    let route () =
      let ci = child_index (fst ops.(i)) b in
      let n = count b in
      let left = if ci > 0 then Some (child_at b (ci - 1), if ci > 1 then Sep_of (page, ci - 2) else lo) else None in
      let clo = if ci > 0 then Sep_of (page, ci - 1) else lo and chi = if ci < n then Sep_of (page, ci) else hi in
      (ci, child_at b ci, clo, chi, ci = n, left)
    in
    let ci, child, clo, chi, last, left =
      match route () with
      | r ->
          Pool.unpin t.pool f;
          r
      | exception e ->
          Pool.unpin t.pool f;
          raise e
    in
    match apply_run t child ops i ~lo:clo ~hi:chi ~last ~left (depth + 1) with
    | stop, [], _ -> (stop, [], false)
    | stop, ups, merged -> (stop, insert_ups t page ci ups ~merged ~lo ~hi, false)
  end

(* The root was cut: stack new roots until one holds all the pieces. *)
let rec grow t = function
  | [] -> ()
  | ups ->
      let page = alloc_page t in
      let ups' =
        let seps = Array.of_list ups in
        write_items t [ page ] ~leaf:false ~link:t.root ~lo:None ~hi:None
          { no_items with seps; codes = Array.init (Array.length seps) (fun j -> -(j + 1)) }
      in
      t.root <- page;
      grow t ups'

let apply_sorted t ops =
  Array.iteri
    (fun j (k, v) ->
      if k = "" then invalid_arg "bptree: empty key";
      (match v with
      | Some v when String.length k + String.length v > max_entry ->
          invalid_arg "bptree: entry too large"
      | _ -> ());
      if j > 0 && String.compare (fst ops.(j - 1)) k >= 0 then
        invalid_arg "bptree: apply_sorted keys not strictly ascending")
    ops;
  t.writes <- t.writes + 1;
  let i = ref 0 in
  while !i < Array.length ops do
    Ode_util.Stats.incr c_index_probes;
    Ode_util.Trace.instant ~cat:"index" "bptree.apply";
    (* A run's cuts touch several pages; no pressure flush may persist some
       of them before the parents, root and header route to the new ones. *)
    Pool.with_no_flush t.pool (fun () ->
        let stop, ups, _ = apply_run t t.root ops !i ~lo:Edge ~hi:Edge ~last:true ~left:None 0 in
        grow t ups;
        write_header t;
        i := stop)
  done

let insert t key value = apply_sorted t [| (key, Some value) |]

(* -- public: streaming cursor ----------------------------------------------------- *)

(* A cursor holds a copy of the part of one leaf it has yet to yield, plus
   the forward link to the next leaf. The copy is taken once per leaf visit:
   the slots of entries [i, j) go to the front of [cbuf], the leaf's key
   prefix follows them at [cpre], and the entries themselves, which lie
   contiguous in the page, follow it, so an entry sits at its page offset
   plus [cdelta]. Writes to the tree between
   [next] calls cannot reach the copy; the cursor keeps walking the leaf
   chain it seeked into. Page 0 is the tree header, so [cnext = 0] means
   "no further leaf". [clast] is the offset in [cbuf] of the entry yielded
   last, whose value {!cursor_value} reads. *)
type cursor = {
  ct : t;
  chi : string option;
  cinclusive_hi : bool;
  mutable cbuf : B.t;
  mutable cdelta : int;
  mutable cpre : int;
  mutable cplen : int;
  mutable clim : int;
  mutable cidx : int;
  mutable cstop : int;
  mutable cnext : int;
  mutable cleaves : int;
  mutable clast : int;
}

let empty_cursor t hi inclusive_hi =
  {
    ct = t;
    chi = hi;
    cinclusive_hi = inclusive_hi;
    cbuf = B.empty;
    cdelta = 0;
    cpre = 0;
    cplen = 0;
    clim = 0;
    cidx = 0;
    cstop = 0;
    cnext = 0;
    cleaves = 0;
    clast = -1;
  }

(* Copy the entries of the checked leaf [b] from the first [>= lo] to the
   last below the cursor's bound into [cur]. *)
let take_leaf cur b lo =
  let n = count b in
  let i = match lo with None -> 0 | Some k -> seek k b 0 ~past:false in
  let j = match cur.chi with None -> n | Some h -> seek h b i ~past:cur.cinclusive_hi in
  let m = if j > i then j - i else 0 in
  let pl = if m = 0 then 0 else plen b in
  let r = if m = 0 then 0 else slot b (j - 1) and e = if m = 0 then 0 else entry_end b i in
  if m > 0 && (r < top b || r > e || e > node_end) then
    corrupt "bptree: leaf entries %d..%d span %d..%d" i j r e;
  let len = (2 * m) + pl + (e - r) in
  if B.length cur.cbuf < len then cur.cbuf <- B.create len;
  B.blit b (slots_off + (2 * i)) cur.cbuf 0 (2 * m);
  B.blit b (node_end - pl) cur.cbuf (2 * m) pl;
  B.blit b r cur.cbuf ((2 * m) + pl) (e - r);
  cur.cdelta <- (2 * m) + pl - r;
  cur.cpre <- 2 * m;
  cur.cplen <- pl;
  cur.clim <- len;
  cur.cidx <- 0;
  cur.cstop <- m;
  (* A bound inside this leaf ends the scan here. *)
  cur.cnext <- (if j < n then 0 else link b)

(* Follow the chain to the next leaf. Written out rather than through
   [with_node], whose closure would allocate once a leaf. *)
let next_leaf cur =
  let t = cur.ct and page = cur.cnext in
  cur.cleaves <- cur.cleaves + 1;
  if cur.cleaves > Pool.page_count t.pool then corrupt "bptree: leaf chain cycles at page %d" page;
  Ode_util.Stats.incr c_cursor_pages_read;
  let f = pin_node t page 0 in
  match
    let b = Pool.data f in
    if not (is_leaf b) then corrupt "bptree: leaf chain reaches internal page %d" page;
    take_leaf cur b None
  with
  | () -> Pool.unpin t.pool f
  | exception e ->
      Pool.unpin t.pool f;
      raise e

(* Entry [x] of the cursor's copy, and the whole key of the entry at
   [off] there. *)
let copied_off cur x = B.get_uint16_le cur.cbuf (2 * x) + cur.cdelta
let copied_key cur off = key_at cur.cbuf cur.cpre cur.cplen off cur.clim

let cursor t ?lo ?hi ?(inclusive_hi = false) () =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.cursor";
  let cur = empty_cursor t hi inclusive_hi in
  Ode_util.Stats.incr c_cursor_pages_read;
  with_leaf t (Option.value lo ~default:"") (fun _ b -> take_leaf cur b lo);
  cur

let rec cursor_step cur =
  if cur.cidx < cur.cstop then begin
    cur.clast <- copied_off cur cur.cidx;
    cur.cidx <- cur.cidx + 1;
    true
  end
  else if cur.cnext = 0 then false
  else begin
    next_leaf cur;
    cursor_step cur
  end

let cursor_next_key cur = if cursor_step cur then Some (copied_key cur cur.clast) else None

let cursor_value cur read =
  if cur.clast < 0 then invalid_arg "Bptree.cursor_value: no entry yielded yet";
  let voff = value_off cur.cbuf cur.clast cur.clim in
  let vlen = len_at cur.cbuf voff cur.clim in
  read cur.cbuf (voff + vsize vlen) vlen

let cursor_next cur =
  match cursor_next_key cur with
  | None -> None
  | Some k -> Some (k, cursor_value cur B.sub_string)

let cursor_prefix t prefix =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> cursor t ~lo:prefix ~hi ()
  | None -> cursor t ~lo:prefix ()

(* -- public: range scans --------------------------------------------------------- *)

let iter_range t ?lo ?hi ?inclusive_hi f =
  let cur = cursor t ?lo ?hi ?inclusive_hi () in
  let rec go () =
    match cursor_next cur with
    | None -> ()
    | Some (k, v) -> if f k v then go ()
  in
  go ()

(* The children of the internal node [b] whose key ranges meet the bounds
   [lo] and [hi], rightmost first: child [i] spans [key (i-1), key i),
   and the bounds are compared with those separators where they lie. *)
let children_between b ~lo ~hi ~inclusive_hi =
  let n = count b in
  let rec from i acc =
    if i < 0 then List.rev acc
    else
      let above_lo = match lo with Some l when i < n -> compare_full l b (slot b i) < 0 | _ -> true in
      let below_hi =
        match hi with
        | Some h when i > 0 ->
            let c = compare_full h b (slot b (i - 1)) in
            if inclusive_hi then c >= 0 else c > 0
        | _ -> true
      in
      from (i - 1) (if above_lo && below_hi then child_at b i :: acc else acc)
  in
  from n []

(* Reverse-order scan. Leaves are only forward-linked, so this walks the
   tree top-down visiting children right-to-left; bounds prune subtrees.
   Each leaf in range is copied as a cursor copies it, and yielded from
   its last entry back. *)
let iter_range_rev t ?lo ?hi ?(inclusive_hi = false) f =
  Ode_util.Stats.incr c_index_probes;
  let cur = empty_cursor t hi inclusive_hi in
  let exception Stop in
  let rec walk page depth =
    let children =
      with_node t page depth (fun b ->
          if is_leaf b then begin
            take_leaf cur b lo;
            None
          end
          else Some (children_between b ~lo ~hi ~inclusive_hi))
    in
    match children with
    | None ->
        for x = cur.cstop - 1 downto 0 do
          cur.clast <- copied_off cur x;
          let k = copied_key cur cur.clast in
          if not (f k (cursor_value cur B.sub_string)) then raise Stop
        done
    | Some children -> List.iter (fun c -> walk c (depth + 1)) children
  in
  try walk t.root 0 with Stop -> ()

let iter_prefix_rev t prefix f =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> iter_range_rev t ~lo:prefix ~hi f
  | None -> iter_range_rev t ~lo:prefix f

let iter_prefix t prefix f =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> iter_range t ~lo:prefix ~hi f
  | None -> iter_range t ~lo:prefix f

let page_count t = Pool.page_count t.pool
let pool t = t.pool
let flush t = Pool.flush_all t.pool

let height t =
  let rec go page depth =
    match with_node t page depth (fun b -> if is_leaf b then -1 else link b) with
    | -1 -> depth + 1
    | child -> go child (depth + 1)
  in
  go t.root 0

(* -- attach -------------------------------------------------------------------- *)

let format pool =
  let t = { pool; root = 0; count = 0; marks = Array.make marks_size no_mark; writes = 0 } in
  let root = alloc_page t in
  fill t root ~leaf:true ~link:0 ~prefix:"" no_items 0 0;
  t.root <- root;
  write_header t;
  t

let attach pool =
  if Pool.page_count pool = 0 then begin
    let f = Pool.allocate pool in
    assert (Pool.page_no f = 0);
    Pool.unpin pool f;
    format pool
  end
  else
    Pool.with_page pool 0 (fun f ->
        let data = Pool.data f in
        let found = B.sub_string data 0 8 in
        if found <> magic then
          corrupt "%s: bad magic %S, this build reads %S"
            (Ode_storage.Disk.name (Pool.disk pool))
            found magic;
        {
          pool;
          root = get_u32 data 8;
          count = Int64.to_int (B.get_int64_le data 12);
          marks = Array.make marks_size no_mark;
          writes = 0;
        })

(* -- structural check -------------------------------------------------------------- *)

(* Every node's layout (entries tile [top, node_end - plen) in slot order,
   the gap is zero), its key prefix (the common prefix of its fences), key
   order inside every node, every key between its node's fences, one
   parent per node, every page but the header reached from the root, equal
   leaf depth, the count, and the leaf chain: followed from the leftmost
   leaf it visits exactly the leaves of the tree walk, in key order, and
   ends at next = 0. [visit] gets each entry of a leaf whose own checks
   passed, in key order, while the leaf is pinned. *)
type fault = { msg : string; stopped : bool }

let check ?visit t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let seen = ref 0 and leaf_depth = ref (-1) in
  (* A bit per page of the file, set when the walk reaches it. *)
  let pages = Pool.page_count t.pool in
  let visited = Bytes.make ((pages + 7) / 8) '\000' in
  let bits page = Char.code (Bytes.get visited (page lsr 3)) in
  let was_visited page = page >= 0 && page < pages && bits page land (1 lsl (page land 7)) <> 0 in
  let visit_page page =
    if page >= 0 && page < pages then
      Bytes.set visited (page lsr 3) (Char.chr (bits page lor (1 lsl (page land 7))))
  in
  (* The leaf chain, checked as the walk reaches each leaf in key order:
     the leaf before must link to it, and the last to none. Only the
     previous leaf and its link are kept. *)
  let prev_leaf = ref 0 and prev_next = ref 0 in
  let layout page b =
    let n = count b and leaf = is_leaf b in
    for i = 0 to n - 1 do
      let off = slot b i in
      let size = if leaf then leaf_size b off node_end else internal_size b off node_end in
      if off + size <> entry_end b i then bad "node %d: entry %d does not end where entry %d begins" page i (i - 1)
    done;
    if (n = 0 && top b <> node_end - plen b) || (n > 0 && slot b (n - 1) <> top b) then
      bad "node %d: entries do not reach its top %d" page (top b);
    for x = slots_off + (2 * n) to top b - 1 do
      if B.get b x <> '\000' then bad "node %d: free gap byte %d is not zero" page x
    done
  in
  (* A fence is read where it lies: the key of the entry at [fo] of [fb],
     a node on the path from the root, which stays pinned while the walk
     is below it; [fo < 0] is the tree's open edge. Byte [i] of that key
     is [key_byte fb fo i]. *)
  let key_len fb fo = plen fb + len_at fb fo node_end in
  let key_byte fb fo i =
    let pl = plen fb in
    if i < pl then B.get fb (node_end - pl + i) else B.get fb (fo + vsize (len_at fb fo node_end) + i - pl)
  in
  (* The keys of the entries at [o1] of [b1] and [o2] of [b2] compared. *)
  let compare_keys b1 o1 b2 o2 =
    let l1 = key_len b1 o1 and l2 = key_len b2 o2 in
    let rec from i =
      if i = l1 || i = l2 then compare l1 l2
      else
        match Char.compare (key_byte b1 o1 i) (key_byte b2 o2 i) with 0 -> from (i + 1) | c -> c
    in
    from 0
  in
  (* The stored prefix is the one its fences give: their longest common
     prefix, empty when either is open, compared in place. A prefix that
     is too long would still make every key start with it, and would make
     keys out of suffixes that lost their first bytes. *)
  let prefix page b lb lo hb ho =
    let common =
      if lo < 0 || ho < 0 then 0
      else
        let n = min (key_len lb lo) (key_len hb ho) in
        let rec from i = if i < n && key_byte lb lo i = key_byte hb ho i then from (i + 1) else i in
        from 0
    in
    let pl = plen b in
    let rec same i = i >= pl || (B.get b (node_end - pl + i) = key_byte lb lo i && same (i + 1)) in
    if pl <> common || not (same 0) then
      bad "node %d: key prefix %S is not its fences' common prefix %S" page
        (B.sub_string b (node_end - pl) pl)
        (String.init common (key_byte lb lo))
  in
  (* A node's keys are compared where they lie: each with the next, then
     the first (its least, once sorted) against the lower fence and the
     last against the upper. No key is copied out. *)
  let node_keys page b lb lo hb ho =
    let n = count b in
    for i = 0 to n - 2 do
      if compare_entries b (slot b i) (slot b (i + 1)) >= 0 then bad "node %d: keys unsorted" page
    done;
    if n > 0 then begin
      if lo >= 0 && compare_keys lb lo b (slot b 0) > 0 then bad "node %d: key below bound" page;
      if ho >= 0 && compare_keys hb ho b (slot b (n - 1)) <= 0 then bad "node %d: key above bound" page
    end;
    n
  in
  (* Each entry of the leaf [b] to [visit], its value read in place as
     [find_with] reads one. *)
  let entries b =
    match visit with
    | None -> ()
    | Some f ->
        for i = 0 to count b - 1 do
          let off = slot b i in
          let voff = value_off b off node_end in
          let vlen = len_at b voff node_end in
          f (node_key b off) b (voff + vsize vlen) vlen
        done
  in
  (* A node is checked while pinned, and an internal one stays pinned
     while its children are walked, so their fences are its entries. *)
  let rec go page depth lb lo hb ho =
    if was_visited page then bad "page %d is reached twice" page;
    visit_page page;
    with_node t page depth (fun b ->
        layout page b;
        prefix page b lb lo hb ho;
        let n = node_keys page b lb lo hb ho in
        if is_leaf b then begin
          entries b;
          if !leaf_depth < 0 then leaf_depth := depth
          else if depth <> !leaf_depth then bad "leaf %d at depth %d, others at %d" page depth !leaf_depth;
          if !prev_leaf <> 0 && !prev_next <> page then
            bad "leaf chain links leaf %d to %d, not to the next leaf %d" !prev_leaf !prev_next page;
          prev_leaf := page;
          prev_next := link b;
          seen := !seen + n
        end
        else
          for i = 0 to n do
            let clb = if i = 0 then lb else b and clo = if i = 0 then lo else slot b (i - 1) in
            let chb = if i = n then hb else b and cho = if i = n then ho else slot b i in
            go (child_at b i) (depth + 1) clb clo chb cho
          done)
  in
  (* Pages are never freed, so one the walk misses is leaked. Found once
     the walk is complete, as are a chain past the last leaf and a wrong
     count: [visit] saw every entry. *)
  let after () =
    if !prev_next <> 0 then bad "leaf chain runs past the last leaf %d to %d" !prev_leaf !prev_next;
    for page = 1 to pages - 1 do
      if not (was_visited page) then bad "page %d is not reachable from the root" page
    done;
    if !seen <> t.count then bad "count mismatch: header %d, found %d" t.count !seen
  in
  match go t.root 0 B.empty (-1) B.empty (-1) with
  | exception Bad msg -> Error { msg; stopped = true }
  | () -> ( match after () with () -> Ok () | exception Bad msg -> Error { msg; stopped = false })

(* Defined last: above, [count] is a node's entry count. *)
let count t = t.count
