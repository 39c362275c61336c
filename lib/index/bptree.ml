module Codec = Ode_util.Codec
module Pool = Ode_storage.Buffer_pool

let c_index_probes = Ode_util.Stats.counter "index_probes"
let c_cursor_pages_read = Ode_util.Stats.counter "cursor_pages_read"
let c_pages_reformatted = Ode_util.Stats.counter ~group:Ode_util.Stats.Recovery "pages_reformatted"
let c_leaf_writes = Ode_util.Stats.counter "bptree.leaf_writes"
let c_splits = Ode_util.Stats.counter "bptree.splits"

let magic = "ODEBPT01"
let max_entry = 1024

(* Serialized-node budget. Nodes are (de)serialized whole; a node splits when
   its serialized size would exceed this. *)
let node_capacity = Ode_storage.Page.size - 16

type node =
  | Leaf of { mutable entries : (string * string) array; mutable next : int }
  | Internal of { mutable keys : string array; mutable children : int array }
(* Internal invariant: length children = length keys + 1; subtree children.(i)
   holds keys < keys.(i); children.(i+1) holds keys >= keys.(i). *)

type t = {
  pool : Pool.t;
  mutable root : int;
  mutable count : int;
  (* Decoded-node cache: every mutation goes through [write_node], which
     refreshes the entry, so the cache never goes stale. Bounded by periodic
     reset. [cache_mu] guards the table itself so reader domains can probe
     it concurrently; the nodes inside are only mutated by the (exclusive)
     writer, so a cached node handed out under the lock stays valid for the
     duration of the reader's request. *)
  node_cache : (int, node) Hashtbl.t;
  cache_mu : Mutex.t;
}

let cache_limit = 8192

(* -- node encoding -------------------------------------------------------------
   A node page holds a u16 byte length, then the node: a kind byte (0 leaf,
   1 internal), a u16 entry/key count and a u32 (leaf: next leaf; internal:
   first child), then per leaf entry u16 klen | key | u16 vlen | value and
   per internal key u16 klen | key | u32 child, all little-endian. Bytes
   past the node are left as they were. Nodes are encoded straight into,
   and decoded straight out of, the pinned frame. *)

let node_size = function
  | Leaf l ->
      Array.fold_left (fun acc (k, v) -> acc + 4 + String.length k + String.length v) 7 l.entries
  | Internal n ->
      Array.fold_left (fun acc k -> acc + 2 + String.length k + 4) 7 n.keys

let get_u32 b off = Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let set_u32 b off n =
  Bytes.set_uint16_le b off (n land 0xffff);
  Bytes.set_uint16_le b (off + 2) ((n lsr 16) land 0xffff)

(* Write [s] length-prefixed at [off]; return the offset past it. *)
let set_str b off s =
  let len = String.length s in
  Bytes.set_uint16_le b off len;
  Bytes.blit_string s 0 b (off + 2) len;
  off + 2 + len

let encode b node =
  let size = node_size node in
  assert (size <= node_capacity);
  Bytes.set_uint16_le b 0 size;
  let stop =
    match node with
    | Leaf l ->
        Bytes.set_uint8 b 2 0;
        Bytes.set_uint16_le b 3 (Array.length l.entries);
        set_u32 b 5 l.next;
        Array.fold_left (fun off (k, v) -> set_str b (set_str b off k) v) 9 l.entries
    | Internal n ->
        Bytes.set_uint8 b 2 1;
        Bytes.set_uint16_le b 3 (Array.length n.keys);
        set_u32 b 5 n.children.(0);
        let off = ref 9 in
        Array.iteri
          (fun i k ->
            let o = set_str b !off k in
            set_u32 b o n.children.(i + 1);
            off := o + 4)
          n.keys;
        !off
  in
  assert (stop = 2 + size)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* Every field is bounds-checked against the recorded length, so a rotten
   page raises [Codec.Corrupt] rather than decoding a neighbour's bytes. *)
let decode b =
  let stop = 2 + Bytes.get_uint16_le b 0 in
  if stop > Bytes.length b then corrupt "bptree: node length %d overruns the page" (stop - 2);
  let pos = ref 2 in
  let take n =
    let p = !pos in
    if p + n > stop then corrupt "bptree: node field at %d overruns node end %d" p stop;
    pos := p + n;
    p
  in
  let u16 () = Bytes.get_uint16_le b (take 2) in
  let u32 () = get_u32 b (take 4) in
  let str () =
    let n = u16 () in
    Bytes.sub_string b (take n) n
  in
  match Bytes.get_uint8 b (take 1) with
  | 0 ->
      let n = u16 () in
      let next = u32 () in
      let entries =
        Array.init n (fun _ ->
            let k = str () in
            let v = str () in
            (k, v))
      in
      Leaf { entries; next }
  | 1 ->
      let n = u16 () in
      let children = Array.make (n + 1) (u32 ()) in
      let keys =
        Array.init n (fun i ->
            let k = str () in
            children.(i + 1) <- u32 ();
            k)
      in
      Internal { keys; children }
  | k -> corrupt "bptree: bad node kind %d" k

let cache_node t page node =
  Mutex.protect t.cache_mu (fun () ->
      if Hashtbl.length t.node_cache >= cache_limit then Hashtbl.reset t.node_cache;
      Hashtbl.replace t.node_cache page node)

let read_node t page =
  match Mutex.protect t.cache_mu (fun () -> Hashtbl.find_opt t.node_cache page) with
  | Some n -> n
  | None ->
      (* A node pointer past the end of the file means the tail was trimmed
         (torn-write repair at open) or the page is rotten: surface it as
         corruption, not as an out-of-range programming error. *)
      if page < 0 || page >= Pool.page_count t.pool then
        raise
          (Codec.Corrupt
             (Printf.sprintf "bptree: node pointer %d beyond end of file (%d pages; truncated?)"
                page (Pool.page_count t.pool)));
      let n = Pool.with_page t.pool page (fun f -> decode (Pool.data f)) in
      cache_node t page n;
      n

let write_node t page node =
  (match node with Leaf _ -> Ode_util.Stats.incr c_leaf_writes | Internal _ -> ());
  Pool.with_page t.pool page (fun f ->
      encode (Pool.data f) node;
      Pool.mark_dirty t.pool f);
  cache_node t page node

(* A fresh page, still holding the zero image the disk wrote for it. *)
let alloc_page t =
  let f = Pool.allocate t.pool in
  Pool.unpin t.pool f;
  Pool.page_no f

let alloc_node t node =
  let page = alloc_page t in
  write_node t page node;
  page

(* -- header ----------------------------------------------------------------- *)

(* Page 0: magic, u32 root, i64 count, zeros to the end of the page. *)
let write_header t =
  Pool.with_page t.pool 0 (fun f ->
      let data = Pool.data f in
      if Bytes.sub_string data 0 8 <> magic then begin
        Bytes.fill data 0 Ode_storage.Page.size '\000';
        Bytes.blit_string magic 0 data 0 8
      end;
      set_u32 data 8 t.root;
      Bytes.set_int64_le data 12 (Int64.of_int t.count);
      Pool.mark_dirty t.pool f)

let attach pool =
  if Pool.page_count pool = 0 then begin
    let f = Pool.allocate pool in
    assert (Pool.page_no f = 0);
    Pool.unpin pool f;
    let t = { pool; root = 0; count = 0; node_cache = Hashtbl.create 256; cache_mu = Mutex.create () } in
    let root = alloc_node t (Leaf { entries = [||]; next = 0 }) in
    t.root <- root;
    write_header t;
    t
  end
  else
    let header =
      Pool.with_page pool 0 (fun f ->
          let data = Pool.data f in
          let got = Bytes.sub_string data 0 8 in
          if got = magic then `Ok (get_u32 data 8, Int64.to_int (Bytes.get_int64_le data 12))
          else if String.for_all (fun ch -> ch = '\000') got then `Never_flushed
          else invalid_arg "bptree: bad magic")
    in
    match header with
    | `Ok (root, count) -> { pool; root; count; node_cache = Hashtbl.create 256; cache_mu = Mutex.create () }
    | `Never_flushed ->
        (* A crash before the first flush left a stamped all-zero header:
           the tree was never durably initialised. Rebuild it empty; any
           other leftover pages are unreachable from the new root. *)
        Ode_util.Stats.incr c_pages_reformatted;
        let t = { pool; root = 0; count = 0; node_cache = Hashtbl.create 256; cache_mu = Mutex.create () } in
        let root = alloc_node t (Leaf { entries = [||]; next = 0 }) in
        t.root <- root;
        write_header t;
        t

(* -- search helpers ---------------------------------------------------------- *)

(* Index of the child to descend into for [key]. *)
let child_index keys key =
  let n = Array.length keys in
  let rec bs lo hi =
    (* smallest i with key < keys.(i); descend child i *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare key keys.(mid) < 0 then bs lo mid else bs (mid + 1) hi
  in
  bs 0 n

(* Position of [key] in a sorted entry array, searching from [lo]: Ok i if
   present, Error i for the insertion point. *)
let entry_index ?(lo = 0) entries key =
  let rec bs lo hi =
    if lo >= hi then Error lo
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare key (fst entries.(mid)) in
      if c = 0 then Ok mid else if c < 0 then bs lo mid else bs (mid + 1) hi
  in
  bs lo (Array.length entries)

let rec find_leaf t page key =
  match read_node t page with
  | Leaf _ as l -> (page, l)
  | Internal n -> find_leaf t n.children.(child_index n.keys key) key

(* -- public: lookup ----------------------------------------------------------- *)

let find t key =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.find";
  match find_leaf t t.root key with
  | _, Leaf l -> (
      match entry_index l.entries key with
      | Ok i -> Some (snd l.entries.(i))
      | Error _ -> None)
  | _ -> assert false

let mem t key = find t key <> None

(* -- public: insert ----------------------------------------------------------- *)

(* Byte weight of a leaf entry and of an internal key: what each adds to
   [node_size] beyond the 7-byte node header. *)
let entry_weight (k, v) = 4 + String.length k + String.length v
let key_weight k = 6 + String.length k
let budget = node_capacity - 7

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

(* Write [entries] to the leaf at [page], cut into pieces on fresh pages
   when they overflow it. Returns each new piece's first key and page. *)
let write_leaf t page entries ~next =
  let node = Leaf { entries; next } in
  if node_size node <= node_capacity then begin
    write_node t page node;
    []
  end
  else begin
    let c = cuts ~promote:false (Array.length entries) (fun i -> entry_weight entries.(i)) in
    let p = Array.length c + 1 in
    let first j = if j = 0 then 0 else c.(j - 1) in
    let stop j = if j = p - 1 then Array.length entries else c.(j) in
    let pages = Array.init p (fun j -> if j = 0 then page else alloc_page t) in
    Ode_util.Stats.add c_splits (p - 1);
    for j = 0 to p - 1 do
      let next = if j = p - 1 then next else pages.(j + 1) in
      write_node t pages.(j) (Leaf { entries = Array.sub entries (first j) (stop j - first j); next })
    done;
    List.init (p - 1) (fun j -> (fst entries.(c.(j)), pages.(j + 1)))
  end

(* Internal counterpart of [write_leaf]: returns each promoted key with
   the page of the piece to its right. *)
let write_internal t page keys children =
  let node = Internal { keys; children } in
  if node_size node <= node_capacity then begin
    write_node t page node;
    []
  end
  else begin
    let c = cuts ~promote:true (Array.length keys) (fun i -> key_weight keys.(i)) in
    let p = Array.length c + 1 in
    let first j = if j = 0 then 0 else c.(j - 1) + 1 in
    let stop j = if j = p - 1 then Array.length keys else c.(j) in
    let pages = Array.init p (fun j -> if j = 0 then page else alloc_page t) in
    Ode_util.Stats.add c_splits (p - 1);
    for j = 0 to p - 1 do
      let a = first j and b = stop j in
      write_node t pages.(j)
        (Internal { keys = Array.sub keys a (b - a); children = Array.sub children a (b - a + 1) })
    done;
    List.init (p - 1) (fun j -> (keys.(c.(j)), pages.(j + 1)))
  end

(* Merge the sorted, distinct [kvs.(i) ..] into [entries], stopping at the
   first key at or above [hi]. Each key is placed by binary search from
   the previous one's position, and the entries between them are blitted.
   Returns the merged array, the index past the run, and how many keys were
   new. *)
let merge_run entries kvs i hi =
  let n = Array.length kvs in
  let stop = ref i in
  while !stop < n && match hi with Some h -> String.compare (fst kvs.(!stop)) h < 0 | None -> true do
    incr stop
  done;
  let ne = Array.length entries in
  let out = Array.make (ne + !stop - i) kvs.(i) in
  let a = ref 0 and o = ref 0 in
  for b = i to !stop - 1 do
    let pos, past =
      match entry_index ~lo:!a entries (fst kvs.(b)) with Ok p -> (p, p + 1) | Error p -> (p, p)
    in
    Array.blit entries !a out !o (pos - !a);
    o := !o + (pos - !a);
    out.(!o) <- kvs.(b);
    incr o;
    a := past
  done;
  Array.blit entries !a out !o (ne - !a);
  o := !o + (ne - !a);
  ((if !o = Array.length out then out else Array.sub out 0 !o), !stop, !o - ne)

(* Insert one leaf run from [kvs.(i)] below [page], whose keys are all
   below [hi]. Returns the index past the run and the (separator, page)
   pairs of the pieces this node was cut into, for the parent to route. *)
let rec insert_run t page kvs i hi =
  match read_node t page with
  | Leaf l ->
      let entries, stop, added = merge_run l.entries kvs i hi in
      t.count <- t.count + added;
      (stop, write_leaf t page entries ~next:l.next)
  | Internal n -> (
      let ci = child_index n.keys (fst kvs.(i)) in
      let hi = if ci < Array.length n.keys then Some n.keys.(ci) else hi in
      match insert_run t n.children.(ci) kvs i hi with
      | stop, [] -> (stop, [])
      | stop, ups ->
          let splice arr at xs =
            Array.concat
              [ Array.sub arr 0 at; Array.of_list xs; Array.sub arr at (Array.length arr - at) ]
          in
          let keys = splice n.keys ci (List.map fst ups) in
          let children = splice n.children (ci + 1) (List.map snd ups) in
          (stop, write_internal t page keys children))

(* The root was cut: stack new roots until one holds all the pieces. *)
let rec grow t = function
  | [] -> ()
  | ups ->
      let page = alloc_page t in
      let ups' =
        write_internal t page (Array.of_list (List.map fst ups))
          (Array.of_list (t.root :: List.map snd ups))
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
        let stop, ups = insert_run t t.root kvs !i None in
        grow t ups;
        write_header t;
        i := stop)
  done

let insert t key value = insert_sorted t [| (key, value) |]

(* -- public: delete ------------------------------------------------------------ *)

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let delete t key =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.delete";
  Pool.with_no_flush t.pool (fun () ->
      let page, node = find_leaf t t.root key in
      match node with
      | Leaf l -> (
          match entry_index l.entries key with
          | Error _ -> false
          | Ok i ->
              write_node t page (Leaf { entries = array_remove l.entries i; next = l.next });
              t.count <- t.count - 1;
              write_header t;
              true)
      | Internal _ -> assert false)

(* -- public: streaming cursor ----------------------------------------------------- *)

(* A cursor holds one leaf's entry array plus the forward link to the next
   leaf. Entry arrays are never mutated in place (inserts and deletes build
   fresh arrays), so the snapshot stays valid even if the tree is written
   between [next] calls — the cursor simply keeps walking the leaf chain it
   seeked into. Page 0 is the tree header, so [cnext = 0] means "no further
   leaf". *)
type cursor = {
  ct : t;
  mutable centries : (string * string) array;
  mutable cidx : int;
  mutable cnext : int;
  chi : string option;
  cinclusive_hi : bool;
}

let cursor t ?lo ?hi ?(inclusive_hi = false) () =
  Ode_util.Stats.incr c_index_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.cursor";
  let start_key = Option.value lo ~default:"" in
  match find_leaf t t.root start_key with
  | _, Internal _ -> assert false
  | _, Leaf l ->
      Ode_util.Stats.incr c_cursor_pages_read;
      (* Both [Ok i] and [Error i] index the first entry >= start_key. *)
      let idx = match entry_index l.entries start_key with Ok i -> i | Error i -> i in
      { ct = t; centries = l.entries; cidx = idx; cnext = l.next; chi = hi; cinclusive_hi = inclusive_hi }

let rec cursor_next cur =
  if cur.cidx < Array.length cur.centries then begin
    let (k, _) as entry = cur.centries.(cur.cidx) in
    cur.cidx <- cur.cidx + 1;
    let below_hi =
      match cur.chi with
      | None -> true
      | Some h ->
          let c = String.compare k h in
          if cur.cinclusive_hi then c <= 0 else c < 0
    in
    if below_hi then Some entry
    else begin
      cur.centries <- [||];
      cur.cnext <- 0;
      None
    end
  end
  else if cur.cnext = 0 then None
  else
    match read_node cur.ct cur.cnext with
    | Internal _ -> assert false
    | Leaf l ->
        Ode_util.Stats.incr c_cursor_pages_read;
        cur.centries <- l.entries;
        cur.cidx <- 0;
        cur.cnext <- l.next;
        cursor_next cur

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

(* Reverse-order scan. Leaves are only forward-linked, so this walks the
   tree top-down visiting children right-to-left; bounds prune subtrees. *)
let iter_range_rev t ?lo ?hi ?(inclusive_hi = false) f =
  Ode_util.Stats.incr c_index_probes;
  let below_hi k =
    match hi with
    | None -> true
    | Some h ->
        let c = String.compare k h in
        if inclusive_hi then c <= 0 else c < 0
  in
  let above_lo k = match lo with None -> true | Some l -> String.compare k l >= 0 in
  let exception Stop in
  let rec walk page =
    match read_node t page with
    | Leaf l ->
        for i = Array.length l.entries - 1 downto 0 do
          let k, v = l.entries.(i) in
          if below_hi k && above_lo k then if not (f k v) then raise Stop
        done
    | Internal n ->
        for i = Array.length n.children - 1 downto 0 do
          (* child i spans [keys.(i-1), keys.(i)); prune with the bounds *)
          let child_min = if i = 0 then None else Some n.keys.(i - 1) in
          let child_max = if i = Array.length n.keys then None else Some n.keys.(i) in
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
          if overlaps_lo && overlaps_hi then walk n.children.(i)
        done
  in
  try walk t.root with Stop -> ()

let iter_prefix_rev t prefix f =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> iter_range_rev t ~lo:prefix ~hi f
  | None -> iter_range_rev t ~lo:prefix f

let iter_prefix t prefix f =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> iter_range t ~lo:prefix ~hi f
  | None -> iter_range t ~lo:prefix f

let count t = t.count
let page_count t = Pool.page_count t.pool
let pool t = t.pool
let flush t = Pool.flush_all t.pool

let rec node_height t page =
  match read_node t page with
  | Leaf _ -> 1
  | Internal n -> 1 + node_height t n.children.(0)

let height t = node_height t t.root

(* -- structural check -------------------------------------------------------------- *)

let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  (* Verify key order inside every node, separator bounds, and count. *)
  let seen = ref 0 in
  let rec go page ~lo ~hi =
    match read_node t page with
    | Leaf l ->
        Array.iter
          (fun (k, _) ->
            incr seen;
            (match lo with
            | Some l0 when String.compare k l0 < 0 -> raise (Bad "leaf key below bound")
            | _ -> ());
            match hi with
            | Some h0 when String.compare k h0 >= 0 -> raise (Bad "leaf key above bound")
            | _ -> ())
          l.entries;
        let rec sorted i =
          i >= Array.length l.entries - 1
          || String.compare (fst l.entries.(i)) (fst l.entries.(i + 1)) < 0 && sorted (i + 1)
        in
        if not (sorted 0) then raise (Bad "leaf unsorted")
    | Internal n ->
        let rec sorted i =
          i >= Array.length n.keys - 1
          || String.compare n.keys.(i) n.keys.(i + 1) < 0 && sorted (i + 1)
        in
        if not (sorted 0) then raise (Bad "internal unsorted");
        Array.iteri
          (fun i child ->
            let lo' = if i = 0 then lo else Some n.keys.(i - 1) in
            let hi' = if i = Array.length n.keys then hi else Some n.keys.(i) in
            go child ~lo:lo' ~hi:hi')
          n.children
  in
  match go t.root ~lo:None ~hi:None with
  | () -> if !seen <> t.count then fail "count mismatch: header %d, found %d" t.count !seen else Ok ()
  | exception Bad msg -> Error msg
