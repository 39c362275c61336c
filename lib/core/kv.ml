(* The committed key-value store: a B+tree directory mapping logical keys to
   heap record ids. Payloads of any size live in the heap; the directory
   keeps keys ordered so class extents and index ranges scan in key order.

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
open Types

let encode_rid (rid : Heap.rid) =
  let b = Buffer.create 6 in
  Heap.encode_rid b rid;
  Buffer.contents b

let decode_rid s = Heap.decode_rid (Codec.cursor s)

(* Record layout: [varint keylen][key][payload]. *)
let encode_record key payload =
  let b = Buffer.create (String.length key + String.length payload + 1) in
  Codec.put_varint b (String.length key);
  Codec.put_raw b key;
  Codec.put_raw b payload;
  Buffer.contents b

(* Ownership test by offset arithmetic: compare the embedded key in place
   without materialising it. The length prefix is compared against the
   shortest-form varint of [key]'s length, which is the only one
   [encode_record] writes. *)
let record_owned key raw =
  let rlen = String.length raw and klen = String.length key in
  let vlen = Codec.varint_size klen in
  rlen >= vlen + klen
  &&
  let rec len_eq i n =
    let byte = Char.code (String.unsafe_get raw i) in
    if n < 0x80 then byte = n else byte = n land 0x7f lor 0x80 && len_eq (i + 1) (n lsr 7)
  in
  len_eq 0 klen
  &&
  let rec eq i = i >= klen || (String.unsafe_get raw (vlen + i) = String.unsafe_get key i && eq (i + 1)) in
  eq 0

(* Zero-copy decode: one substring for the payload, no key copy, never
   raises (a short or foreign record is just [None]). *)
let decode_record_view key raw =
  if record_owned key raw then
    let skip = Codec.varint_size (String.length key) + String.length key in
    Some (String.sub raw skip (String.length raw - skip))
  else None

let decode_record = decode_record_view

let get db key =
  match Bptree.find db.kv_dir key with
  | None -> None
  | Some rid -> (
      match Heap.get db.kv_heap (decode_rid rid) with
      | None -> None
      | Some raw -> decode_record key raw)

let mem db key = Bptree.mem db.kv_dir key

(* The single committed-write path (commit apply, recovery replay, standby
   apply). [puts] is in ascending key order, each key once. One directory
   lookup per key decides between updating the record in place and a fresh
   heap insert; [on_new key] runs for a key the directory did not hold.
   New and moved records reach the directory in one sorted batch. *)
let put_sorted db puts ~on_new =
  Ode_util.Trace.with_span ~cat:"kv" "kv.put" @@ fun () ->
  let routed = ref [] in
  let route key rid = routed := (key, encode_rid rid) :: !routed in
  Array.iter
    (fun (key, payload) ->
      (* A cached decode of this key is now stale. *)
      Ocache.invalidate db key;
      let record = encode_record key payload in
      let fresh () = route key (Heap.insert db.kv_heap record) in
      match Bptree.find db.kv_dir key with
      | None ->
          on_new key;
          fresh ()
      | Some rid_s -> (
          let rid = decode_rid rid_s in
          (* After a crash mid-apply the directory can point at a dead or
             torn record, or at a foreign one (stale alias); recovery replays
             the Put, which must then insert afresh and leave the record
             alone. *)
          match Heap.get db.kv_heap rid with
          | Some raw when decode_record key raw <> None ->
              let rid' = Heap.update db.kv_heap rid record in
              if not (Heap.rid_equal rid rid') then route key rid'
          | Some _ | None | (exception Ode_util.Codec.Corrupt _) -> fresh ()))
    puts;
  Bptree.insert_sorted db.kv_dir (Array.of_list (List.rev !routed))

let delete db key =
  Ode_util.Trace.with_span ~cat:"kv" "kv.delete" @@ fun () ->
  Ocache.invalidate db key;
  match Bptree.find db.kv_dir key with
  | None -> ()
  | Some rid_s ->
      let rid = decode_rid rid_s in
      (* Free the record only when this key owns it. A dead, torn or
         foreign record stays (the orphan sweep reclaims carcasses), but
         the directory entry must be dropped regardless or replayed Deletes
         would fail forever. *)
      (match Heap.get db.kv_heap rid with
      | Some raw when decode_record key raw <> None -> ignore (Heap.delete db.kv_heap rid)
      | Some _ | None | (exception Ode_util.Codec.Corrupt _) -> ());
      ignore (Bptree.delete db.kv_dir key)

(* [f key payload]; return false to stop.

   Default path: stream through a B+tree cursor — one leaf resident at a
   time, and an early-exiting callback stops page reads immediately. The
   cursor copies each leaf's entry bytes when it reaches the leaf, so a
   split or delete racing the scan cannot corrupt it.

   Collect-first fallback: when the scanning transaction already has pending
   writes under the prefix, the scan's callback is likely interleaving
   overlay reads and further writes against the same extent (e.g. a fixpoint
   query inserting objects mid-scan). Materialising the directory entries up
   front keeps that case on the historically stable footing.

   [?txn] is the scanning transaction; when omitted, [db.active] (the most
   recently begun write transaction) is consulted as before. Reader domains
   must always pass their own transaction: [db.active] belongs to the writer
   and reading it from another domain is a race. *)
let pending_under_prefix db ?txn prefix =
  match (match txn with Some _ as t -> t | None -> db.active) with
  | None -> false
  | Some t ->
      Hashtbl.length t.writes > 0
      && Hashtbl.fold
           (fun k _ acc -> acc || String.starts_with ~prefix k)
           t.writes false

let iter_prefix db ?txn prefix f =
  let fetch k rid_s k_payload_fn =
    match Heap.get db.kv_heap (decode_rid rid_s) with
    | None -> true (* deleted since the directory entry was read *)
    | Some raw -> (
        match decode_record_view k raw with
        | None -> true (* stale alias: not this key's record *)
        | Some payload -> k_payload_fn payload)
  in
  if pending_under_prefix db ?txn prefix then begin
    let entries = ref [] in
    Bptree.iter_prefix db.kv_dir prefix (fun k rid ->
        entries := (k, rid) :: !entries;
        true);
    let rec go = function
      | [] -> ()
      | (k, rid_s) :: rest -> if fetch k rid_s (fun payload -> f k payload) then go rest
    in
    go (List.rev !entries)
  end
  else
    let cur = Bptree.cursor_prefix db.kv_dir prefix in
    let rec go () =
      match Bptree.cursor_next cur with
      | None -> ()
      | Some (k, rid_s) -> if fetch k rid_s (fun payload -> f k payload) then go ()
    in
    go ()

(* [f key]; return false to stop. Like [iter_prefix] but never touches the
   heap: only directory leaves are read, so the scan's working set is the
   key tree, not the records. The directory can hold entries for records
   that died since (deletes drop entries eagerly, but crash recovery may
   leave strays), so callers must re-verify liveness per key — e.g. with
   [get] — before trusting a candidate. *)
let iter_prefix_keys db ?txn prefix f =
  if pending_under_prefix db ?txn prefix then begin
    let keys = ref [] in
    Bptree.iter_prefix db.kv_dir prefix (fun k _ ->
        keys := k :: !keys;
        true);
    let rec go = function [] -> () | k :: rest -> if f k then go rest in
    go (List.rev !keys)
  end
  else
    let cur = Bptree.cursor_prefix db.kv_dir prefix in
    let rec go () =
      match Bptree.cursor_next cur with None -> () | Some (k, _) -> if f k then go ()
    in
    go ()
