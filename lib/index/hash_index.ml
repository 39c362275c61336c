module Codec = Ode_util.Codec
module Pool = Ode_storage.Buffer_pool
module Page = Ode_storage.Page

let c_index_probes = Ode_util.Stats.counter "index_probes"

let magic = "ODEHASH1"
let max_entry = 1024
let max_buckets = (Page.data_end - 24) / 4
let split_threshold = 24 (* average entries per bucket before growing *)

(* Bucket pages are raw: [u32 next][u16 nentries][u16 used] then packed
   entries [u16 klen][u16 vlen][key][val]. *)
let bp_header = 8
let bp_capacity = Page.data_end - bp_header

type t = {
  pool : Pool.t;
  mutable level : int;
  mutable split : int;
  mutable count : int;
}

(* -- header ------------------------------------------------------------- *)

let get32 p off =
  Char.code (Bytes.get p off)
  lor (Char.code (Bytes.get p (off + 1)) lsl 8)
  lor (Char.code (Bytes.get p (off + 2)) lsl 16)
  lor (Char.code (Bytes.get p (off + 3)) lsl 24)

let set32 p off v =
  Bytes.set p off (Char.chr (v land 0xff));
  Bytes.set p (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set p (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set p (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get16 p off = Char.code (Bytes.get p off) lor (Char.code (Bytes.get p (off + 1)) lsl 8)

let set16 p off v =
  Bytes.set p off (Char.chr (v land 0xff));
  Bytes.set p (off + 1) (Char.chr ((v lsr 8) land 0xff))

let write_header t =
  Pool.with_page t.pool 0 (fun f ->
      let d = Pool.data f in
      Bytes.blit_string magic 0 d 0 8;
      set32 d 8 t.level;
      set32 d 12 t.split;
      Bytes.set_int64_le d 16 (Int64.of_int t.count);
      Pool.mark_dirty t.pool f)

let bucket_dir_get t i = Pool.with_page t.pool 0 (fun f -> get32 (Pool.data f) (24 + (4 * i)))

let bucket_dir_set t i page =
  Pool.with_page t.pool 0 (fun f ->
      set32 (Pool.data f) (24 + (4 * i)) page;
      Pool.mark_dirty t.pool f)

let nbuckets t = (1 lsl t.level) + t.split

let attach pool =
  if Pool.page_count pool = 0 then begin
    let f = Pool.allocate pool in
    assert (Pool.page_no f = 0);
    Bytes.fill (Pool.data f) 0 Page.size '\000';
    Pool.mark_dirty pool f;
    Pool.unpin pool f;
    let t = { pool; level = 0; split = 0; count = 0 } in
    write_header t;
    t
  end
  else
    Pool.with_page pool 0 (fun f ->
        let d = Pool.data f in
        if Bytes.sub_string d 0 8 <> magic then invalid_arg "hash_index: bad magic";
        {
          pool;
          level = get32 d 8;
          split = get32 d 12;
          count = Int64.to_int (Bytes.get_int64_le d 16);
        })

(* -- bucket pages ---------------------------------------------------------- *)

let bp_next d = get32 d 0
let bp_set_next d v = set32 d 0 v
let bp_nentries d = get16 d 4
let bp_used d = get16 d 6

let bp_reset d =
  Bytes.fill d 0 Page.size '\000';
  set16 d 6 0

let bp_entries d =
  let n = bp_nentries d in
  let entries = ref [] in
  let off = ref bp_header in
  for _ = 1 to n do
    let klen = get16 d !off in
    let vlen = get16 d (!off + 2) in
    let k = Bytes.sub_string d (!off + 4) klen in
    let v = Bytes.sub_string d (!off + 4 + klen) vlen in
    entries := (k, v) :: !entries;
    off := !off + 4 + klen + vlen
  done;
  List.rev !entries

let bp_write_entries d entries =
  let total =
    List.fold_left (fun acc (k, v) -> acc + 4 + String.length k + String.length v) 0 entries
  in
  assert (total <= bp_capacity);
  let next = bp_next d in
  bp_reset d;
  bp_set_next d next;
  let off = ref bp_header in
  List.iter
    (fun (k, v) ->
      set16 d !off (String.length k);
      set16 d (!off + 2) (String.length v);
      Bytes.blit_string k 0 d (!off + 4) (String.length k);
      Bytes.blit_string v 0 d (!off + 4 + String.length k) (String.length v);
      off := !off + 4 + String.length k + String.length v)
    entries;
  set16 d 4 (List.length entries);
  set16 d 6 (!off - bp_header)

let bp_room d entry_bytes = bp_capacity - bp_used d >= entry_bytes

(* -- hashing ----------------------------------------------------------------- *)

let bucket_of t key =
  (* Keep 62 bits so the hash is a non-negative OCaml int. *)
  let h = Int64.to_int (Int64.shift_right_logical (Codec.fnv64 key) 2) in
  let b = h mod (1 lsl t.level) in
  if b < t.split then h mod (1 lsl (t.level + 1)) else b

let alloc_bucket_page t =
  let f = Pool.allocate t.pool in
  let page = Pool.page_no f in
  bp_reset (Pool.data f);
  Pool.mark_dirty t.pool f;
  Pool.unpin t.pool f;
  page

(* Collect every entry of a bucket chain; return also the chain's pages. *)
let chain_entries t first =
  let entries = ref [] and pages = ref [] in
  let rec go page =
    if page <> 0 then begin
      pages := page :: !pages;
      let next =
        Pool.with_page t.pool page (fun f ->
            entries := bp_entries (Pool.data f) @ !entries;
            bp_next (Pool.data f))
      in
      go next
    end
  in
  go first;
  (List.rev !entries, List.rev !pages)

(* Rewrite a chain to hold exactly [entries], reusing [pages] and extending
   if needed; returns the chain head (0 when both are empty). *)
let write_chain t pages entries =
  let entry_bytes (k, v) = 4 + String.length k + String.length v in
  (* Greedy packing into pages. *)
  let rec pack groups current size = function
    | [] -> List.rev (if current = [] then groups else List.rev current :: groups)
    | e :: rest ->
        let b = entry_bytes e in
        if size + b > bp_capacity && current <> [] then
          pack (List.rev current :: groups) [ e ] b rest
        else pack groups (e :: current) (size + b) rest
  in
  let groups = pack [] [] 0 entries in
  let rec ensure_pages pages n =
    if n <= List.length pages then pages else ensure_pages (pages @ [ alloc_bucket_page t ]) n
  in
  let pages = ensure_pages pages (max 1 (List.length groups)) in
  let rec fill pages groups =
    match (pages, groups) with
    | [], _ -> ()
    | page :: prest, g ->
        let group, grest = match g with [] -> ([], []) | x :: r -> (x, r) in
        let next = match (prest, grest) with _ :: _, _ :: _ -> List.hd prest | _, [] -> 0 | [], _ -> 0 in
        Pool.with_page t.pool page (fun f ->
            let d = Pool.data f in
            bp_write_entries d group;
            bp_set_next d next;
            Pool.mark_dirty t.pool f);
        fill (if grest = [] then [] else prest) grest
  in
  fill pages groups;
  match pages with p :: _ -> p | [] -> 0

(* -- growth -------------------------------------------------------------------- *)

let maybe_split t =
  if nbuckets t < max_buckets && t.count > split_threshold * nbuckets t then begin
    let victim = t.split in
    let buddy = (1 lsl t.level) + t.split in
    let head = bucket_dir_get t victim in
    let entries, pages = chain_entries t head in
    t.split <- t.split + 1;
    if t.split = 1 lsl t.level then begin
      t.level <- t.level + 1;
      t.split <- 0
    end;
    let keep, move =
      List.partition (fun (k, _) -> bucket_of t k = victim) entries
    in
    let head' = write_chain t pages keep in
    bucket_dir_set t victim head';
    let bhead = bucket_dir_get t buddy in
    let bentries, bpages = chain_entries t bhead in
    let bhead' = write_chain t bpages (bentries @ move) in
    bucket_dir_set t buddy bhead';
    write_header t
  end

(* -- public -------------------------------------------------------------------- *)

let find t key =
  Ode_util.Stats.incr c_index_probes;
  let rec go page =
    if page = 0 then None
    else
      let hit, next =
        Pool.with_page t.pool page (fun f ->
            let d = Pool.data f in
            (List.assoc_opt key (bp_entries d), bp_next d))
      in
      match hit with Some v -> Some v | None -> go next
  in
  go (bucket_dir_get t (bucket_of t key))

let mem t key = find t key <> None

let insert t key value =
  if key = "" then invalid_arg "hash_index: empty key";
  if 4 + String.length key + String.length value > max_entry then
    invalid_arg "hash_index: entry too large";
  Ode_util.Stats.incr c_index_probes;
  let b = bucket_of t key in
  let head = bucket_dir_get t b in
  let entry_bytes = 4 + String.length key + String.length value in
  (* Walk the chain: replace in place if present, else remember the first
     page with room. *)
  let rec go page room =
    if page = 0 then `Append room
    else
      let decision =
        Pool.with_page t.pool page (fun f ->
            let d = Pool.data f in
            let entries = bp_entries d in
            if List.mem_assoc key entries then begin
              bp_write_entries d ((key, value) :: List.remove_assoc key entries);
              Pool.mark_dirty t.pool f;
              `Replaced
            end
            else
              `Continue (bp_next d, if room = 0 && bp_room d entry_bytes then page else room))
      in
      match decision with
      | `Replaced -> `Replaced
      | `Continue (next, room) -> go next room
  in
  match go head 0 with
  | `Replaced -> ()
  | `Append room ->
      let target =
        if room <> 0 then room
        else begin
          let page = alloc_bucket_page t in
          (* Link at the head of the chain. *)
          Pool.with_page t.pool page (fun f ->
              bp_set_next (Pool.data f) head;
              Pool.mark_dirty t.pool f);
          bucket_dir_set t b page;
          page
        end
      in
      Pool.with_page t.pool target (fun f ->
          let d = Pool.data f in
          bp_write_entries d (bp_entries d @ [ (key, value) ]);
          Pool.mark_dirty t.pool f);
      t.count <- t.count + 1;
      write_header t;
      maybe_split t

let delete t key =
  Ode_util.Stats.incr c_index_probes;
  let rec go page =
    if page = 0 then false
    else
      let deleted, next =
        Pool.with_page t.pool page (fun f ->
            let d = Pool.data f in
            let entries = bp_entries d in
            if List.mem_assoc key entries then begin
              bp_write_entries d (List.remove_assoc key entries);
              Pool.mark_dirty t.pool f;
              (true, 0)
            end
            else (false, bp_next d))
      in
      deleted || go next
  in
  let ok = go (bucket_dir_get t (bucket_of t key)) in
  if ok then begin
    t.count <- t.count - 1;
    write_header t
  end;
  ok

let iter t f =
  for b = 0 to nbuckets t - 1 do
    let entries, _ = chain_entries t (bucket_dir_get t b) in
    List.iter (fun (k, v) -> f k v) entries
  done

let count t = t.count
let bucket_count t = nbuckets t
let page_count t = Pool.page_count t.pool
let flush t = Pool.flush_all t.pool

let check t =
  let seen = ref 0 in
  let bad = ref None in
  for b = 0 to nbuckets t - 1 do
    let entries, _ = chain_entries t (bucket_dir_get t b) in
    List.iter
      (fun (k, _) ->
        incr seen;
        if bucket_of t k <> b then bad := Some (Printf.sprintf "key in bucket %d hashes elsewhere" b))
      entries
  done;
  match !bad with
  | Some msg -> Error msg
  | None ->
      if !seen <> t.count then
        Error (Printf.sprintf "count mismatch: header %d, found %d" t.count !seen)
      else Ok ()
