module Codec = Ode_util.Codec
module Pool = Ode_storage.Buffer_pool
module B = Ode_storage.Bigbytes

let c_index_probes = Ode_util.Stats.counter "index_probes"
let c_cursor_pages_read = Ode_util.Stats.counter "cursor_pages_read"
let c_leaf_writes = Ode_util.Stats.counter "bptree.leaf_writes"
let c_splits = Ode_util.Stats.counter "bptree.splits"

let magic = "ODEBPT02"
let max_entry = 1024

(* The buffer pool is the only cache of nodes: every read searches the
   pinned frame in place, and every write edits it. *)
type t = { pool : Pool.t; mutable root : int; mutable count : int }

(* -- node layout (ODEBPT02) ---------------------------------------------------
   A node page is a slotted page. Its header:

     0  u8   kind: 0 leaf, 1 internal
     1  u16  entry count n
     3  u32  leaf: next leaf (0: none); internal: child 0
     7  u16  top: offset of the lowest entry byte

   then n u16 slots, the entry offsets in key order. Entries fill
   [top, node_end) from the end down, entry 0 highest and each entry
   directly below the one before it, so a run of ascending inserts moves
   no bytes:

     leaf entry      varint klen | key | varint vlen | value
     internal entry  varint klen | key | u32 child

   Internal child i+1 (the one in entry i) holds keys >= key i; child 0
   holds keys below key 0. Lengths are unsigned LEB128 varints in their
   shortest form, one byte under 128 (so a leaf entry costs 4 bytes beside
   its key and value, slot included), two up to [max_entry]. The free gap
   between the slots and [top] is all zero bytes, so a node's page bytes
   are a function of its contents alone. All integers are little-endian.
   The disk layer's checksum trailer lies past [node_end]. *)

let kind_off = 0
let count_off = 1
let link_off = 3
let top_off = 7
let slots_off = 9
let node_end = Ode_storage.Page.data_end

(* What one node can hold beside its header: entries and their slots. *)
let budget = node_end - slots_off

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
let slot b i = B.get_uint16_le b (slots_off + (2 * i))
let set_slot b i off = B.set_uint16_le b (slots_off + (2 * i)) off
let free b = top b - slots_off - (2 * count b)
let vsize n = if n < 0x80 then 1 else 2

(* The end of entry [p], where entry [p] would go were it inserted. *)
let entry_end b p = if p = 0 then node_end else slot b (p - 1)

(* A node's header, checked before anything else is read: the kind byte,
   and slots that end at or before [top], which is inside the node. *)
let check_header t b page =
  let k = Char.code (B.get b kind_off) in
  if k > 1 then corrupt "%s: page %d: bad node kind %d" (file t) page k;
  let top = top b in
  if slots_off + (2 * count b) > top || top > node_end then
    corrupt "%s: page %d: %d slots and entry region at %d overlap" (file t) page (count b) top

(* -- reading entries in place -------------------------------------------------
   Entry fields are read from [b] at an offset found in a slot. Every length
   is checked against [lim], the end of the bytes the entry may use, so a
   rotten node raises [Codec.Corrupt] rather than read a neighbour's bytes
   or past the buffer. The same readers serve a page ([lim] = [node_end])
   and a cursor's copy of one. Nothing here allocates. *)

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

(* The sign of [String.compare key] against the [len] bytes at [pos] of
   [b], whose first [i] bytes match and whose first [n] (the shorter
   length) are compared. Eight bytes at a time, as big-endian words
   compared unsigned, then byte by byte. The caller has checked
   [pos + len] against the node, so the unchecked reads are in bounds. *)
let rec compare_from key b pos len i n =
  if i + 8 <= n then
    let x = String.get_int64_be key i and y = B.bswap64 (B.unsafe_get_int64_le b (pos + i)) in
    if Int64.equal x y then compare_from key b pos len (i + 8) n
    else compare (Int64.sub x Int64.min_int) (Int64.sub y Int64.min_int)
  else if i = n then compare (String.length key) len
  else
    let c = Char.code (String.unsafe_get key i) - Char.code (B.unsafe_get b (pos + i)) in
    if c <> 0 then c else compare_from key b pos len (i + 1) n

let compare_key key b off lim =
  let len = len_at b off lim in
  let kl = String.length key in
  compare_from key b (off + vsize len) len 0 (if kl < len then kl else len)

(* The sign of comparing the [l1] bytes at [p1] of [b] with the [l2] at
   [p2], whose first [i] match and whose first [n] (the shorter length)
   are compared. *)
let rec compare_in b p1 l1 p2 l2 i n =
  if i = n then compare l1 l2
  else
    let c = Char.code (B.unsafe_get b (p1 + i)) - Char.code (B.unsafe_get b (p2 + i)) in
    if c <> 0 then c else compare_in b p1 l1 p2 l2 (i + 1) n

(* The keys of the entries at [off1] and [off2] of the node [b], compared
   where they lie. *)
let compare_entries b off1 off2 =
  let l1 = len_at b off1 node_end and l2 = len_at b off2 node_end in
  compare_in b (off1 + vsize l1) l1 (off2 + vsize l2) l2 0 (if l1 < l2 then l1 else l2)

let key_string b off lim =
  let len = len_at b off lim in
  B.sub_string b (off + vsize len) len

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

(* Binary search of the node [b]'s entries [lo, hi) for [key]: the index
   if present, else [-(i + 1)] for the insertion point [i]. *)
let rec search key b lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_key key b (slot b mid) node_end in
    if c = 0 then mid else if c < 0 then search key b lo mid else search key b (mid + 1) hi

let search_node key b lo = search key b lo (count b)

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

(* An entry of a node being rewritten: one already in the source image
   [src], at its offset there, or a new leaf entry or separator. *)
type item = Old of int | Entry of string * string | Sep of string * int

let entry_size k v =
  vsize (String.length k) + String.length k + vsize (String.length v) + String.length v

let item_size ~leaf src = function
  | Old off -> if leaf then leaf_size src off node_end else internal_size src off node_end
  | Entry (k, v) -> entry_size k v
  | Sep (k, _) ->
      let kl = String.length k in
      vsize kl + kl + 4

let item_key src = function Old off -> key_string src off node_end | Entry (k, _) | Sep (k, _) -> k
let item_child src = function Old off -> child_of src off node_end | Sep (_, c) -> c | Entry _ -> assert false

let put_entry b off k v =
  let p = put_len b off (String.length k) in
  B.blit_from_string k 0 b p (String.length k);
  let p = put_len b (p + String.length k) (String.length v) in
  B.blit_from_string v 0 b p (String.length v)

let put_sep b off k child =
  let p = put_len b off (String.length k) in
  B.blit_from_string k 0 b p (String.length k);
  set_u32 b (p + String.length k) child

(* Write [items.(a) .. items.(z-1)] as the whole node at [page]: each
   entry below the one before it, then the slots, the header and a zeroed
   gap. *)
let fill t page ~leaf ~link src items a z =
  if leaf then Ode_util.Stats.incr c_leaf_writes;
  Pool.with_page t.pool page (fun f ->
      let b = Pool.data f in
      let e = ref node_end in
      for x = a to z - 1 do
        let it = items.(x) in
        let size = item_size ~leaf src it in
        e := !e - size;
        (match it with
        | Old off -> B.blit src off b !e size
        | Entry (k, v) -> put_entry b !e k v
        | Sep (k, c) -> put_sep b !e k c);
        set_slot b (x - a) !e
      done;
      let gap = slots_off + (2 * (z - a)) in
      assert (gap <= !e);
      B.fill b gap (!e - gap) '\000';
      B.set b kind_off (if leaf then '\000' else '\001');
      B.set_uint16_le b count_off (z - a);
      set_u32 b link_off link;
      B.set_uint16_le b top_off !e;
      Pool.mark_dirty t.pool f)

(* Cut points that split [m] items, item [i] weighing [weight i] bytes,
   into the fewest pieces whose payload fits [budget], as even in bytes as
   item boundaries allow: cut [j] of [p] lands on the item boundary nearest
   [j/p] of the bytes. Leaves ([promote] false) cut between items: piece
   [j] holds items [c.(j-1), c.(j)). Internal nodes ([promote] true) hand
   the item at each cut up to the parent: piece [j] holds items
   [c.(j-1)+1, c.(j)). Every piece holds at least one item. No cuts when
   everything fits. *)
let cuts ~promote m weight =
  let prefix = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    prefix.(i + 1) <- prefix.(i) + weight i
  done;
  let total = prefix.(m) in
  let skip = if promote then 1 else 0 in
  let rec attempt p =
    (* p pieces need p items, plus p-1 promoted ones *)
    assert (p + (skip * (p - 1)) <= m);
    let c = Array.make (p - 1) 0 in
    let start = ref 0 and fits = ref true in
    for j = 1 to p - 1 do
      let target = total * j / p in
      let lo = !start + 1 and hi = m - ((1 + skip) * (p - j)) in
      let x = ref lo in
      while !x < hi && prefix.(!x + 1) <= target do
        incr x
      done;
      if !x < hi && target - prefix.(!x) > prefix.(!x + 1) - target then incr x;
      fits := !fits && prefix.(!x) - prefix.(!start) <= budget;
      c.(j - 1) <- !x;
      start := !x + skip
    done;
    if !fits && total - prefix.(!start) <= budget then c else attempt (p + 1)
  in
  attempt ((total + budget - 1) / budget)

(* Cut points that fill leaf pieces left to right, each up to [budget],
   and leave the remainder to the last. *)
let fill_cuts m weight =
  let c = ref [] and used = ref 0 in
  for x = 0 to m - 1 do
    let w = weight x in
    if !used + w > budget then begin
      c := x :: !c;
      used := w
    end
    else used := !used + w
  done;
  Array.of_list (List.rev !c)

(* Write [items] as the node at [page], cut into pieces on fresh pages when
   they overflow it. A leaf's pieces are chained ahead of [link], its next
   leaf; an internal node's first piece takes [link] as child 0 and each
   later piece the child of the separator promoted before it. Returns each
   new piece's separator and page, for the parent to route.

   When [append], the items are a leaf's entries followed by new ones that
   all sort after them, as ascending inserts bring. The pieces are then
   filled in order rather than evenly, so the leaves they leave behind are
   full: the next append lands in the last piece, never in them. *)
let write_items ?(append = false) t page ~leaf ~link src items =
  let m = Array.length items in
  let weight x = 2 + item_size ~leaf src items.(x) in
  let total = ref 0 in
  for x = 0 to m - 1 do
    total := !total + weight x
  done;
  if !total <= budget then begin
    fill t page ~leaf ~link src items 0 m;
    []
  end
  else begin
    let c = if append && leaf then fill_cuts m weight else cuts ~promote:(not leaf) m weight in
    let p = Array.length c + 1 in
    let first j = if j = 0 then 0 else if leaf then c.(j - 1) else c.(j - 1) + 1 in
    let stop j = if j = p - 1 then m else c.(j) in
    let pages = Array.init p (fun j -> if j = 0 then page else alloc_page t) in
    Ode_util.Stats.add c_splits (p - 1);
    for j = 0 to p - 1 do
      let link =
        if leaf then if j = p - 1 then link else pages.(j + 1)
        else if j = 0 then link
        else item_child src items.(c.(j - 1))
      in
      fill t pages.(j) ~leaf ~link src items (first j) (stop j)
    done;
    List.init (p - 1) (fun j -> (item_key src items.(c.(j)), pages.(j + 1)))
  end

(* -- in-place leaf edits ------------------------------------------------------- *)

(* Insert entry (k, v) at index [p] of the leaf [b], which has room for it
   and its slot: entries [p..] move down by its size, and their slots
   shift right by one. *)
let insert_at b p k v =
  let n = count b and top0 = top b in
  let sz = entry_size k v in
  let e = entry_end b p in
  if e < top0 || e > node_end then corrupt "bptree: entry %d ends at %d, outside its node" p e;
  B.blit b top0 b (top0 - sz) (e - top0);
  put_entry b (e - sz) k v;
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

(* Written out rather than through [with_leaf], whose closure would
   allocate: a hit allocates only what [read] returns and its option. *)
let find_with t key read =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.find";
  let f = pin_leaf t key t.root 0 in
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

let find t key = find_with t key B.sub_string

let mem t key = find t key <> None

(* -- public: insert ----------------------------------------------------------- *)

(* Apply the leaf run [kvs.(i) .. kvs.(stop-1)] to the pinned leaf [b] at
   [page]. A run that fits is edited into the page in place; one that
   overflows is merged with a copy of the leaf's entries and cut into
   pieces, filled in order when the run appends to a leaf that is its
   parent's [last] child ([write_items]' [append]). Returns the pieces'
   (separator, page) pairs. *)
let leaf_run t page b kvs i stop ~last =
  (* Room the run needs, applied key by key: a new entry and its slot, or
     a value's growth. Shrinking values free room only for later keys. *)
  let need = ref 0 and peak = ref 0 and lo = ref 0 in
  for x = i to stop - 1 do
    let k, v = kvs.(x) in
    let p = search_node k b !lo in
    if p >= 0 then begin
      need := !need + entry_size k v - leaf_size b (slot b p) node_end;
      lo := p + 1
    end
    else begin
      need := !need + 2 + entry_size k v;
      lo := -(p + 1)
    end;
    if !need > !peak then peak := !need
  done;
  if !peak <= free b then begin
    Ode_util.Stats.incr c_leaf_writes;
    let lo = ref 0 in
    for x = i to stop - 1 do
      let k, v = kvs.(x) in
      let p = search_node k b !lo in
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
      insert_at b p k v;
      lo := p + 1
    done;
    []
  end
  else begin
    let src = B.sub b 0 node_end in
    let n = count src in
    (* An append: the run's first key sorts after the last entry of a
       leaf that is the last child of its parent, where ascending keys keep
       landing. A random key also lands past a leaf's last entry now and
       then, but rarely in a last child, so random inserts keep the even
       cut. So does a run into an empty leaf, such as a first batch, which
       says nothing about where later keys land. *)
    let append = last && n > 0 && search_node (fst kvs.(i)) src 0 = -(n + 1) in
    let items = ref [] and a = ref 0 in
    let old_upto p =
      for q = !a to p - 1 do
        items := Old (slot src q) :: !items
      done
    in
    for x = i to stop - 1 do
      let k, v = kvs.(x) in
      let p = search_node k src !a in
      let p, past = if p >= 0 then (p, p + 1) else (-(p + 1), -(p + 1)) in
      old_upto p;
      items := Entry (k, v) :: !items;
      if past = p then t.count <- t.count + 1;
      a := past
    done;
    old_upto n;
    write_items ~append t page ~leaf:true ~link:(link src) src (Array.of_list (List.rev !items))
  end

(* Insert [ups], pieces of child [ci]'s former node, after child [ci] of
   the internal node at [page]. *)
let insert_ups t page ci ups =
  let src = with_node t page 0 (fun b -> B.sub b 0 node_end) in
  let n = count src in
  let items =
    Array.concat
      [
        Array.init ci (fun q -> Old (slot src q));
        Array.of_list (List.map (fun (k, c) -> Sep (k, c)) ups);
        Array.init (n - ci) (fun q -> Old (slot src (ci + q)));
      ]
  in
  write_items t page ~leaf:false ~link:(link src) src items

(* Insert one leaf run from [kvs.(i)] below [page], whose keys are all
   below [hi], and which is its parent's [last] child (the root counts as
   one). Returns the index past the run and the (separator, page) pairs of
   the pieces this node was cut into, for the parent to route. *)
let rec insert_run t page kvs i hi ~last depth =
  let f = pin_node t page depth in
  let b = Pool.data f in
  if is_leaf b then begin
    let stop = ref i in
    while
      !stop < Array.length kvs
      && match hi with Some h -> String.compare (fst kvs.(!stop)) h < 0 | None -> true
    do
      incr stop
    done;
    match leaf_run t page b kvs i !stop ~last with
    | ups ->
        Pool.mark_dirty t.pool f;
        Pool.unpin t.pool f;
        (!stop, ups)
    | exception e ->
        Pool.unpin t.pool f;
        raise e
  end
  else begin
    let route () =
      let ci = child_index (fst kvs.(i)) b in
      let n = count b in
      (ci, child_at b ci, (if ci < n then Some (key_string b (slot b ci) node_end) else hi), ci = n)
    in
    let ci, child, hi, last =
      match route () with
      | r ->
          Pool.unpin t.pool f;
          r
      | exception e ->
          Pool.unpin t.pool f;
          raise e
    in
    match insert_run t child kvs i hi ~last (depth + 1) with
    | stop, [] -> (stop, [])
    | stop, ups -> (stop, insert_ups t page ci ups)
  end

(* The root was cut: stack new roots until one holds all the pieces. *)
let rec grow t = function
  | [] -> ()
  | ups ->
      let page = alloc_page t in
      let ups' =
        write_items t page ~leaf:false ~link:t.root B.empty
          (Array.of_list (List.map (fun (k, c) -> Sep (k, c)) ups))
      in
      t.root <- page;
      grow t ups'

let insert_sorted t kvs =
  Array.iteri
    (fun j (k, v) ->
      if k = "" then invalid_arg "bptree: empty key";
      if String.length k + String.length v > max_entry then invalid_arg "bptree: entry too large";
      if j > 0 && String.compare (fst kvs.(j - 1)) k >= 0 then
        invalid_arg "bptree: insert_sorted keys not strictly ascending")
    kvs;
  let i = ref 0 in
  while !i < Array.length kvs do
    Ode_util.Stats.incr c_index_probes;
    Ode_util.Trace.instant ~cat:"index" "bptree.insert";
    (* A run's cuts touch several pages; no pressure flush may persist some
       of them before the parents, root and header route to the new ones. *)
    Pool.with_no_flush t.pool (fun () ->
        let stop, ups = insert_run t t.root kvs !i None ~last:true 0 in
        grow t ups;
        write_header t;
        i := stop)
  done

let insert t key value = insert_sorted t [| (key, value) |]

(* -- public: delete ------------------------------------------------------------ *)

let delete t key =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.delete";
  Pool.with_no_flush t.pool (fun () ->
      let hit =
        with_leaf t key (fun f b ->
            let p = search_node key b 0 in
            if p >= 0 then begin
              remove_at b p;
              Pool.mark_dirty t.pool f
            end;
            p >= 0)
      in
      if hit then begin
        Ode_util.Stats.incr c_leaf_writes;
        t.count <- t.count - 1;
        write_header t
      end;
      hit)

(* -- public: streaming cursor ----------------------------------------------------- *)

(* A cursor holds a copy of the part of one leaf it has yet to yield, plus
   the forward link to the next leaf. The copy is taken once per leaf visit:
   the slots of entries [i, j) go to the front of [cbuf], and the entries
   themselves, which lie contiguous in the page, follow them, so an entry
   sits at its page offset plus [cdelta]. Writes to the tree between
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
  let r = if m = 0 then 0 else slot b (j - 1) and e = if m = 0 then 0 else entry_end b i in
  if m > 0 && (r < top b || r > e || e > node_end) then
    corrupt "bptree: leaf entries %d..%d span %d..%d" i j r e;
  let len = (2 * m) + (e - r) in
  if B.length cur.cbuf < len then cur.cbuf <- B.create len;
  B.blit b (slots_off + (2 * i)) cur.cbuf 0 (2 * m);
  B.blit b r cur.cbuf (2 * m) (e - r);
  cur.cdelta <- (2 * m) - r;
  cur.clim <- len;
  cur.cidx <- 0;
  cur.cstop <- m;
  (* A bound inside this leaf ends the scan here. *)
  cur.cnext <- (if j < n then 0 else link b)

(* Follow the chain to the next leaf. *)
let next_leaf cur =
  let t = cur.ct and page = cur.cnext in
  cur.cleaves <- cur.cleaves + 1;
  if cur.cleaves > Pool.page_count t.pool then corrupt "bptree: leaf chain cycles at page %d" page;
  Ode_util.Stats.incr c_cursor_pages_read;
  with_node t page 0 (fun b ->
      if not (is_leaf b) then corrupt "bptree: leaf chain reaches internal page %d" page;
      take_leaf cur b None)

(* Entry [x] of the cursor's copy. *)
let copied_off cur x = B.get_uint16_le cur.cbuf (2 * x) + cur.cdelta

let cursor t ?lo ?hi ?(inclusive_hi = false) () =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.cursor";
  let cur = empty_cursor t hi inclusive_hi in
  Ode_util.Stats.incr c_cursor_pages_read;
  with_leaf t (Option.value lo ~default:"") (fun _ b -> take_leaf cur b lo);
  cur

let rec cursor_next_key cur =
  if cur.cidx < cur.cstop then begin
    let off = copied_off cur cur.cidx in
    cur.cidx <- cur.cidx + 1;
    cur.clast <- off;
    Some (key_string cur.cbuf off cur.clim)
  end
  else if cur.cnext = 0 then None
  else begin
    next_leaf cur;
    cursor_next_key cur
  end

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

(* The separator keys and children of the internal node [b]. *)
let internal_parts b =
  let n = count b in
  (Array.init n (fun i -> key_string b (slot b i) node_end), Array.init (n + 1) (child_at b))

(* Reverse-order scan. Leaves are only forward-linked, so this walks the
   tree top-down visiting children right-to-left; bounds prune subtrees.
   Each leaf in range is copied as a cursor copies it, and yielded from
   its last entry back. *)
let iter_range_rev t ?lo ?hi ?(inclusive_hi = false) f =
  Ode_util.Stats.incr c_index_probes;
  let cur = empty_cursor t hi inclusive_hi in
  let exception Stop in
  let rec walk page depth =
    let parts =
      with_node t page depth (fun b ->
          if is_leaf b then begin
            take_leaf cur b lo;
            None
          end
          else Some (internal_parts b))
    in
    match parts with
    | None ->
        for x = cur.cstop - 1 downto 0 do
          cur.clast <- copied_off cur x;
          let k = key_string cur.cbuf cur.clast cur.clim in
          if not (f k (cursor_value cur B.sub_string)) then raise Stop
        done
    | Some (keys, children) ->
        for i = Array.length children - 1 downto 0 do
          (* child i spans [keys.(i-1), keys.(i)); prune with the bounds *)
          let child_min = if i = 0 then None else Some keys.(i - 1) in
          let child_max = if i = Array.length keys then None else Some keys.(i) in
          let overlaps_lo =
            match (lo, child_max) with
            | Some l, Some cmax -> String.compare cmax l > 0
            | _ -> true
          in
          let overlaps_hi =
            match (hi, child_min) with
            | Some h, Some cmin ->
                if inclusive_hi then String.compare cmin h <= 0 else String.compare cmin h < 0
            | _ -> true
          in
          if overlaps_lo && overlaps_hi then walk children.(i) (depth + 1)
        done
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
  let t = { pool; root = 0; count = 0 } in
  let root = alloc_page t in
  fill t root ~leaf:true ~link:0 B.empty [||] 0 0;
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
        { pool; root = get_u32 data 8; count = Int64.to_int (B.get_int64_le data 12) })

(* -- structural check -------------------------------------------------------------- *)

(* Every node's layout (entries tile [top, node_end) in slot order, the gap
   is zero), key order inside every node, separator bounds, one parent per
   node, every page but the header reached from the root, equal leaf depth,
   the count, and the leaf chain: followed from the leftmost leaf it visits
   exactly the leaves of the tree walk, in key order, and ends at
   next = 0. *)
let check t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let seen = ref 0 and leaves = ref [] and leaf_depth = ref (-1) in
  let visited = Hashtbl.create 64 in
  let layout page b =
    let n = count b and leaf = is_leaf b in
    for i = 0 to n - 1 do
      let off = slot b i in
      let size = if leaf then leaf_size b off node_end else internal_size b off node_end in
      if off + size <> entry_end b i then bad "node %d: entry %d does not end where entry %d begins" page i (i - 1)
    done;
    if (n = 0 && top b <> node_end) || (n > 0 && slot b (n - 1) <> top b) then
      bad "node %d: entries do not reach its top %d" page (top b);
    for x = slots_off + (2 * n) to top b - 1 do
      if B.get b x <> '\000' then bad "node %d: free gap byte %d is not zero" page x
    done
  in
  let sorted page keys =
    for i = 0 to Array.length keys - 2 do
      if String.compare keys.(i) keys.(i + 1) >= 0 then bad "node %d: keys unsorted" page
    done
  in
  (* A leaf's keys are compared where they lie: each with the next, then
     the first (its least, once sorted) against [lo] and the last against
     [hi]. No key is copied out. *)
  let leaf_keys page b ~lo ~hi =
    let n = count b in
    for i = 0 to n - 2 do
      if compare_entries b (slot b i) (slot b (i + 1)) >= 0 then bad "node %d: keys unsorted" page
    done;
    if n > 0 then begin
      (match lo with
      | Some l0 when compare_key l0 b (slot b 0) node_end > 0 -> bad "leaf %d: key below bound" page
      | _ -> ());
      match hi with
      | Some h0 when compare_key h0 b (slot b (n - 1)) node_end <= 0 -> bad "leaf %d: key above bound" page
      | _ -> ()
    end;
    n
  in
  let rec go page depth ~lo ~hi =
    if Hashtbl.mem visited page then bad "page %d is reached twice" page;
    Hashtbl.add visited page ();
    let node =
      with_node t page depth (fun b ->
          layout page b;
          if is_leaf b then `Leaf (leaf_keys page b ~lo ~hi, link b) else `Internal (internal_parts b))
    in
    match node with
    | `Leaf (n, next) ->
        if !leaf_depth < 0 then leaf_depth := depth
        else if depth <> !leaf_depth then bad "leaf %d at depth %d, others at %d" page depth !leaf_depth;
        leaves := (page, next) :: !leaves;
        seen := !seen + n
    | `Internal (keys, children) ->
        sorted page keys;
        Array.iteri
          (fun i child ->
            let lo' = if i = 0 then lo else Some keys.(i - 1) in
            let hi' = if i = Array.length keys then hi else Some keys.(i) in
            go child (depth + 1) ~lo:lo' ~hi:hi')
          children
  in
  (* The chain from the leftmost leaf is the tree walk's leaves exactly
     when each links to the walk's next leaf and the last to none. *)
  let rec chain = function
    | [] -> ()
    | [ (page, next) ] -> if next <> 0 then bad "leaf chain runs past the last leaf %d to %d" page next
    | (page, next) :: ((page', _) :: _ as rest) ->
        if next <> page' then bad "leaf chain links leaf %d to %d, not to the next leaf %d" page next page';
        chain rest
  in
  (* Pages are never freed, so one the walk misses is leaked. *)
  let reached () =
    for page = 1 to Pool.page_count t.pool - 1 do
      if not (Hashtbl.mem visited page) then bad "page %d is not reachable from the root" page
    done
  in
  match
    go t.root 0 ~lo:None ~hi:None;
    chain (List.rev !leaves);
    reached ()
  with
  | () ->
      if !seen <> t.count then Error (Printf.sprintf "count mismatch: header %d, found %d" t.count !seen)
      else Ok ()
  | exception Bad msg -> Error msg

(* Defined last: above, [count] is a node's entry count. *)
let count t = t.count
