(* The committed key-value store: a B+tree directory over logical keys,
   kept ordered so class extents and index ranges scan in key order. A
   record has one of two homes, chosen by its payload's size alone:

   - a payload of at most [inline_max] bytes lives in its directory leaf,
     so a read is one descent and the key is stored once;
   - a larger one lives in the heap, and the leaf holds its rid.

   A directory value is a one-byte tag, then either the payload
   ([tag_inline]) or the rid as a varint page and a varint slot
   ([tag_heap]), so an out-of-line entry is no longer than a fixed 6-byte
   rid. An update that crosses the limit moves the record between its
   homes.

   Every heap record is prefixed with its owning key. Heap rids are physical
   (page, slot) addresses that get reused, and after a crash the on-disk
   directory is a patchwork of pages flushed at different commit points — a
   stale entry can alias a slot that recovery's replay has since handed to a
   different key. The embedded key makes every resolution self-verifying:
   put, delete and get refuse to touch a record owned by another key, so a
   stale alias can redirect nothing worse than its own directory entry. *)

module Codec = Ode_util.Codec
module Heap = Ode_storage.Heap
module Bptree = Ode_index.Bptree
module B = Ode_storage.Bigbytes
open Types

(* Chosen by running the benchmark's four workloads at 64, 128 and 256
   bytes (README, "Two homes for a record"): 128 takes their small rows
   inline and keeps 200-byte bodies, which grow in place and carry
   versions, in the heap. *)
let inline_max = 128

(* Whether a payload of [len] bytes under [key] lives in the leaf: up to
   [inline_max] bytes, unless the key is so long that the entry would not
   fit a node (a long root name). *)
let in_leaf key len = len <= inline_max && String.length key + 1 + len <= Bptree.max_entry

type entry = Inline of string | At of Heap.rid

let tag_heap = 0
let tag_inline = 1

(* A directory value, built once at its final size: an inline one is
   one copy of its payload. *)
let inline_value payload =
  let n = String.length payload in
  let b = Bytes.create (n + 1) in
  Bytes.set b 0 (Char.chr tag_inline);
  Bytes.blit_string payload 0 b 1 n;
  Bytes.unsafe_to_string b

let rid_value (rid : Heap.rid) =
  let b = Bytes.create (1 + Codec.varint_size rid.page + Codec.varint_size rid.slot) in
  Bytes.set b 0 (Char.chr tag_heap);
  ignore (Codec.set_varint b (Codec.set_varint b 1 rid.page) rid.slot);
  Bytes.unsafe_to_string b

let encode_entry = function Inline payload -> inline_value payload | At rid -> rid_value rid

(* Readers of the [len] value bytes at [off] of [b], in the shape
   [Bptree.find_with] and [Bptree.cursor_value] take. *)
let is_inline b off len = len > 0 && Char.code (B.get b off) = tag_inline

(* The end of the varint at [pos] of [b], which must end by [lim],
   checked as [Codec.get_varint] checks it: not truncated, in its
   shortest form, and not past [max_int]. [p] is the byte read next,
   [shift] its group's. *)
let rec varint_end b pos lim p shift =
  if p >= lim then raise (Codec.Corrupt (Printf.sprintf "kv: truncated rid varint at %d" pos));
  let byte = Char.code (B.get b p) in
  if shift = 56 && byte > 0x3f then
    raise (Codec.Corrupt (Printf.sprintf "kv: rid varint at %d overflows" pos));
  if byte >= 0x80 then varint_end b pos lim (p + 1) (shift + 7)
  else if byte = 0 && shift > 0 then
    raise (Codec.Corrupt (Printf.sprintf "kv: overlong rid varint at %d" pos))
  else p + 1

(* The value of the varint at [p], which [varint_end] has checked, with
   [acc] its groups so far. *)
let rec varint_at b p shift acc =
  let byte = Char.code (B.get b p) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then acc else varint_at b (p + 1) (shift + 7) acc

(* [k page slot] for the rid in the value, decoded where it lies. *)
let with_rid b off len k =
  if len = 0 then raise (Codec.Corrupt "kv: empty directory value");
  let tag = Char.code (B.get b off) in
  if tag <> tag_heap then raise (Codec.Corrupt (Printf.sprintf "kv: unknown directory value tag %d" tag));
  let lim = off + len in
  let slot_at = varint_end b (off + 1) lim (off + 1) 0 in
  if varint_end b slot_at lim slot_at 0 <> lim then raise (Codec.Corrupt "kv: trailing bytes after a rid");
  k (varint_at b (off + 1) 0 0) (varint_at b slot_at 0 0)

let rid_at b off len = with_rid b off len (fun page slot -> { Heap.page; slot })

let entry_at b off len =
  if is_inline b off len then Inline (B.sub_string b (off + 1) (len - 1)) else At (rid_at b off len)

(* [None] for an inline value: the rid, if any, without copying a payload. *)
let rid_of_value b off len = if is_inline b off len then None else Some (rid_at b off len)

let decode_entry s = entry_at (B.of_string s) 0 (String.length s)

(* Record layout: [varint keylen][key][payload], one copy of each. *)
let encode_record key payload =
  let kl = String.length key and pl = String.length payload in
  let b = Bytes.create (Codec.varint_size kl + kl + pl) in
  let p = Codec.set_varint b 0 kl in
  Bytes.blit_string key 0 b p kl;
  Bytes.blit_string payload 0 b (p + kl) pl;
  Bytes.unsafe_to_string b

(* Ownership test by offset arithmetic: compare the embedded key in place
   without materialising it, in the [len] bytes at [off] of [b]. The length
   prefix is compared against the shortest-form varint of [key]'s length,
   which is the only one [encode_record] writes. *)
let owned_at key b off len =
  let klen = String.length key in
  let vlen = Codec.varint_size klen in
  len >= vlen + klen
  &&
  let rec len_eq i n =
    let byte = Char.code (B.get b i) in
    if n < 0x80 then byte = n else byte = n land 0x7f lor 0x80 && len_eq (i + 1) (n lsr 7)
  in
  len_eq off klen
  &&
  let rec eq i =
    i >= klen || (B.unsafe_get b (off + vlen + i) = String.unsafe_get key i && eq (i + 1))
  in
  eq 0

(* Whether [key] owns its heap record at [rid]: [Some false] for another
   key's, [None] for a dead one. Copies nothing. *)
let heap_owned db key rid = Heap.get_with db.kv_heap rid (owned_at key)

(* The payload of [key]'s record in the [len] bytes at [off] of [b], copied
   once; [None] for a short or foreign record. Never raises. *)
let payload_at key b off len =
  if owned_at key b off len then
    let skip = Codec.varint_size (String.length key) + String.length key in
    Some (B.sub_string b (off + skip) (len - skip))
  else None

(* The payload of [key]'s heap record at [rid], copied once out of its
   pinned page; [None] when the record is dead or another key's (deleted
   since the directory entry was read, or a stale alias). *)
let heap_payload db key rid = Option.join (Heap.get_with db.kv_heap rid (payload_at key))

(* An inline payload is copied once, straight out of the pinned leaf. A
   rid leaves through [Out_of_line], so that the leaf reader's result is
   already [get]'s and an inline hit allocates nothing else. *)
exception Out_of_line of Heap.rid

let payload_in_leaf b off len =
  if is_inline b off len then B.sub_string b (off + 1) (len - 1)
  else raise_notrace (Out_of_line (rid_at b off len))

let get db key =
  match Bptree.find_with db.kv_dir key payload_in_leaf with
  | found -> found
  | exception Out_of_line rid -> heap_payload db key rid

(* The single committed-write path (commit apply, recovery replay, standby
   apply). [ops] is in ascending key order, each key once; those in
   [skip] are another tree's. Each key's directory entry is found by an
   ascending lookup, which descends once per leaf the keys fall in. The
   deletes go first: each frees its key's heap record, in key order, so
   the puts placed after them can reuse their slots. A small payload
   goes into the leaf, a large one into the heap record the key owns,
   updated in place, or into a fresh one; a record whose size crosses
   [inline_max] moves, and the heap record of one moving into the leaf
   is freed. Every delete and every changed directory value reach the
   tree in one sorted batch, filled in as the puts are placed. *)
let apply_sorted db ops ~skip:(skip_from, skip_to) ~on_new ~on_gone =
  Ode_util.Trace.with_span ~cat:"kv" "kv.apply" @@ fun () ->
  (* The heap record of [key]'s entry if [key] owns it. After a crash
     mid-apply the directory can point at a dead or torn record, or at a
     foreign one (stale alias): a replayed put then places its payload
     afresh and a replayed delete drops the entry, and neither touches
     the record (the orphan sweep reclaims carcasses). *)
  let owned key = function
    | Some (Some rid) -> (
        match heap_owned db key rid with
        | Some true -> Some rid
        | Some false | None | (exception Codec.Corrupt _) -> None)
    | _ -> None
  in
  let n = Array.length ops in
  let mine x = x < skip_from || x >= skip_to in
  (* The deletes whose key the directory holds: only they reach the tree. *)
  let held = Bytes.make n '\000' in
  let gone = Bptree.ascending db.kv_dir in
  for x = 0 to n - 1 do
    match ops.(x) with
    | key, Del when mine x -> (
        match Bptree.find_ascending gone key rid_of_value with
        | None -> ()
        | h -> (
            Bytes.set held x '\001';
            on_gone key;
            match owned key h with Some rid -> ignore (Heap.delete db.kv_heap rid) | None -> ()))
    | _ -> ()
  done;
  let routed = Array.make (n - (skip_to - skip_from)) ("", None) in
  let r = ref 0 in
  let route key value =
    routed.(!r) <- (key, value);
    incr r
  in
  let homes = Bptree.ascending db.kv_dir in
  for x = 0 to n - 1 do
    if mine x then
      match ops.(x) with
      | key, Del -> if Bytes.get held x <> '\000' then route key None
      | key, Put payload -> (
          let h = Bptree.find_ascending homes key rid_of_value in
          if Option.is_none h then on_new key;
          let small = in_leaf key (String.length payload) in
          match owned key h with
          | Some rid when small ->
              ignore (Heap.delete db.kv_heap rid);
              route key (Some (inline_value payload))
          | Some rid ->
              let rid' = Heap.update db.kv_heap rid (encode_record key payload) in
              if not (Heap.rid_equal rid rid') then route key (Some (rid_value rid'))
          | None when small -> route key (Some (inline_value payload))
          | None -> route key (Some (rid_value (Heap.insert db.kv_heap (encode_record key payload)))))
  done;
  Bptree.apply_sorted db.kv_dir (if !r = Array.length routed then routed else Array.sub routed 0 !r)

(* [f key value] over the prefix's entries in key order, each value read
   by [read] from the cursor's copy of its leaf; [f] returns false to stop.
   One leaf is resident at a time, and an early exit stops page reads. The
   cursor copies each leaf's entry bytes when it reaches the leaf, so a
   split or delete racing the scan cannot corrupt it; a transaction's own
   pending writes live in its overlay, never in the tree, so a callback
   that writes mid-scan (a fixpoint query inserting into the extent it
   scans) cannot disturb it either. *)
let scan db prefix read f =
  let cur = Bptree.cursor_prefix db.kv_dir prefix in
  let rec go () =
    match Bptree.cursor_next_key cur with
    | None -> ()
    | Some k -> if f k (Bptree.cursor_value cur read) then go ()
  in
  go ()

(* A key-less walk of the whole directory: no key, option or rid is
   built for an entry. *)
let iter_rids db f =
  let cur = Bptree.cursor db.kv_dir () in
  let read b off len = if not (is_inline b off len) then with_rid b off len f in
  while Bptree.cursor_step cur do
    Bptree.cursor_value cur read
  done

let iter_prefix_entries db prefix f = scan db prefix entry_at f

let entry_payload db key = function Inline payload -> Some payload | At rid -> heap_payload db key rid

let iter_prefix db prefix f =
  iter_prefix_entries db prefix (fun k e ->
      match entry_payload db k e with None -> true | Some payload -> f k payload)
