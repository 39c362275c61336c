module Codec = Ode_util.Codec
module Failpoint = Ode_util.Failpoint

let fp_flush = Failpoint.site "heap.flush"

type rid = { page : int; slot : int }

let pp_rid ppf r = Format.fprintf ppf "%d.%d" r.page r.slot
let rid_equal a b = a.page = b.page && a.slot = b.slot

let encode_rid b r =
  Codec.put_u32 b r.page;
  Codec.put_u16 b r.slot

let decode_rid c =
  let page = Codec.get_u32 c in
  let slot = Codec.get_u16 c in
  { page; slot }

(* Record tags. Inline records carry the payload directly; records larger
   than a page become a head that points at a chain of chunk records. *)
let tag_inline = 1
let tag_head = 2
let tag_chunk = 3
let chunk_capacity = Page.max_record - 16
(* The store's format version, checked at open. Bumped when the layout of
   what the store holds changes (ODEHEAP2: compact keys; ODEHEAP3:
   schema-described object records and varint framing; ODEHEAP4: small
   records in the directory leaf and tagged directory values; ODEHEAP5:
   schema-described trigger activations, and the oid counters in the meta
   record; ODEHEAP6: object slots and activation arguments by their
   declared types, and a one-byte header for an object never versioned;
   ODEHEAP7: activation records keyed by object and tid, the oid out of
   the record body; ODEHEAP8: the checkpoint LSN in the header page, not
   in a file beside the log), so an older store fails at once instead of
   being misparsed. *)
let magic = "ODEHEAP8"

(* Free-space map: pages bucketed by 256-byte free classes so insert can find
   a fitting page in O(1) without scanning every page. *)
module Fsm = struct
  let bucket_width = 256
  let nbuckets = (Page.size / bucket_width) + 1

  type t = {
    buckets : (int, unit) Hashtbl.t array;
    of_page : (int, int) Hashtbl.t; (* page -> bucket *)
  }

  let create () =
    { buckets = Array.init nbuckets (fun _ -> Hashtbl.create 16); of_page = Hashtbl.create 64 }

  let bucket_of free = min (nbuckets - 1) (free / bucket_width)

  let remove t page =
    match Hashtbl.find_opt t.of_page page with
    | None -> ()
    | Some b ->
        Hashtbl.remove t.buckets.(b) page;
        Hashtbl.remove t.of_page page

  let set t page free =
    remove t page;
    let b = bucket_of free in
    Hashtbl.replace t.buckets.(b) page ();
    Hashtbl.replace t.of_page page b

  (* A page in bucket [b] has at least [b * bucket_width] free bytes, so any
     bucket strictly above [need]'s class is a guaranteed fit. *)
  let find t need =
    let first_sure = (need / bucket_width) + 1 in
    let rec go b =
      if b >= nbuckets then None
      else
        match Hashtbl.length t.buckets.(b) with
        | 0 -> go (b + 1)
        | _ -> Hashtbl.fold (fun k () _ -> Some k) t.buckets.(b) None
    in
    go first_sure
end

type t = { pool : Buffer_pool.t; fsm : Fsm.t; mutable records : int }

let pool t = t.pool

(* -- header ---------------------------------------------------------------
   Page 0 holds the magic, then the checkpoint LSN as an i64 at [lsn_at],
   then zeros. *)

let lsn_at = String.length magic

let write_header t =
  let f = Buffer_pool.pin t.pool 0 in
  Bigbytes.fill (Buffer_pool.data f) 0 Page.size '\000';
  Bigbytes.blit_from_string magic 0 (Buffer_pool.data f) 0 (String.length magic);
  Buffer_pool.mark_dirty t.pool f;
  Buffer_pool.unpin t.pool f

(* A store written by another format is refused, as a corrupt one is. *)
let check_header t =
  Buffer_pool.with_page t.pool 0 (fun f ->
      let found = Bigbytes.sub_string (Buffer_pool.data f) 0 (String.length magic) in
      if found <> magic then
        raise
          (Codec.Corrupt
             (Printf.sprintf "%s: bad magic %S, this build reads %S"
                (Disk.name (Buffer_pool.disk t.pool))
                found magic)))

let lsn t =
  Buffer_pool.with_page t.pool 0 (fun f -> Int64.to_int (Bigbytes.get_int64_le (Buffer_pool.data f) lsn_at))

let set_lsn t lsn =
  Buffer_pool.with_page t.pool 0 (fun f ->
      Bigbytes.set_int64_le (Buffer_pool.data f) lsn_at (Int64.of_int lsn);
      Buffer_pool.mark_dirty t.pool f)

let attach pool =
  let t = { pool; fsm = Fsm.create (); records = 0 } in
  if Buffer_pool.page_count pool = 0 then begin
    let f = Buffer_pool.allocate pool in
    assert (Buffer_pool.page_no f = 0);
    Buffer_pool.unpin pool f;
    write_header t
  end
  else begin
    check_header t;
    (* Rebuild the free-space map and record count by scanning data pages.
       A page that fails its layout check is damage, not a page to reuse. *)
    for n = 1 to Buffer_pool.page_count pool - 1 do
      Buffer_pool.with_page pool n (fun f ->
          let p = Buffer_pool.data f in
          (match Page.check p with
          | Ok () -> ()
          | Error e ->
              raise
                (Codec.Corrupt
                   (Printf.sprintf "%s: page %d: %s" (Disk.name (Buffer_pool.disk pool)) n e)));
          Fsm.set t.fsm n (Page.free_space p);
          Page.iter_first_byte p (fun _ tag -> if tag <> tag_chunk then t.records <- t.records + 1))
    done
  end;
  t

(* -- low-level insert of one tagged record -------------------------------- *)

let raw_insert t data =
  let need = String.length data in
  if need > Page.max_record then invalid_arg "heap: raw record too large";
  let target =
    match Fsm.find t.fsm need with
    | Some n -> n
    | None ->
        let f = Buffer_pool.allocate t.pool in
        let n = Buffer_pool.page_no f in
        Page.reset (Buffer_pool.data f);
        Buffer_pool.mark_dirty t.pool f;
        Buffer_pool.unpin t.pool f;
        n
  in
  Buffer_pool.with_page t.pool target (fun f ->
      let p = Buffer_pool.data f in
      match Page.insert p data with
      | Some slot ->
          Buffer_pool.mark_dirty t.pool f;
          Fsm.set t.fsm target (Page.free_space p);
          { page = target; slot }
      | None ->
          (* The free-space class over-promised (slot-directory overhead);
             refresh the map and retry on a fresh page. *)
          Fsm.set t.fsm target (Page.free_space p);
          let g = Buffer_pool.allocate t.pool in
          let n = Buffer_pool.page_no g in
          let q = Buffer_pool.data g in
          Page.reset q;
          let slot =
            match Page.insert q data with
            | Some s -> s
            | None -> invalid_arg "heap: record does not fit a fresh page"
          in
          Buffer_pool.mark_dirty t.pool g;
          Fsm.set t.fsm n (Page.free_space q);
          Buffer_pool.unpin t.pool g;
          { page = n; slot })

let raw_get t rid =
  if rid.page <= 0 || rid.page >= Buffer_pool.page_count t.pool then None
  else Buffer_pool.with_page t.pool rid.page (fun f -> Page.get (Buffer_pool.data f) rid.slot)

let raw_delete t rid =
  Buffer_pool.with_page t.pool rid.page (fun f ->
      let p = Buffer_pool.data f in
      let ok = Page.delete p rid.slot in
      if ok then begin
        Buffer_pool.mark_dirty t.pool f;
        Fsm.set t.fsm rid.page (Page.free_space p)
      end;
      ok)

(* -- chunking -------------------------------------------------------------- *)

let nil_rid = { page = 0; slot = 0 }

let encode_chunk ~next ~has_next body =
  let b = Buffer.create (String.length body + 8) in
  Codec.put_u8 b tag_chunk;
  Codec.put_bool b has_next;
  encode_rid b next;
  Codec.put_raw b body;
  Buffer.contents b

let encode_head ~total ~first =
  let b = Buffer.create 16 in
  Codec.put_u8 b tag_head;
  Codec.put_u32 b total;
  encode_rid b first;
  Buffer.contents b

(* Split [payload] into chunks and store them, returning the rid of the
   first chunk. Chunks are written back-to-front so each knows its next. *)
let store_chain t payload =
  let len = String.length payload in
  let rec chunks off acc =
    if off >= len then List.rev acc
    else
      let n = min chunk_capacity (len - off) in
      chunks (off + n) (String.sub payload off n :: acc)
  in
  let parts = chunks 0 [] in
  List.fold_left
    (fun next part ->
      let has_next = not (rid_equal next nil_rid) in
      raw_insert t (encode_chunk ~next ~has_next part))
    nil_rid (List.rev parts)

let free_chain t first =
  let rec go rid =
    match raw_get t rid with
    | None -> ()
    | Some data -> (
        let c = Codec.cursor data in
        match Codec.get_u8 c with
        | tag when tag <> tag_chunk ->
            (* Post-crash repair can leave a head whose chain rid now names
               an unrelated record; stop rather than free it. *)
            ()
        | _ ->
            let has_next = Codec.get_bool c in
            let next = decode_rid c in
            ignore (raw_delete t rid);
            if has_next then go next)
  in
  go first

let read_chain t total first =
  let b = Buffer.create total in
  let rec go rid =
    match raw_get t rid with
    | None -> raise (Codec.Corrupt "heap: broken overflow chain")
    | Some data ->
        let c = Codec.cursor data in
        let tag = Codec.get_u8 c in
        if tag <> tag_chunk then raise (Codec.Corrupt "heap: expected chunk");
        let has_next = Codec.get_bool c in
        let next = decode_rid c in
        Buffer.add_string b (Codec.get_raw c (Codec.remaining c));
        if has_next then go next
  in
  go first;
  Buffer.contents b

(* -- public operations ------------------------------------------------------ *)

let inline_limit = Page.max_record - 1

let insert t payload =
  t.records <- t.records + 1;
  if String.length payload <= inline_limit then
    raw_insert t ("\001" ^ payload)
  else
    let first = store_chain t payload in
    raw_insert t (encode_head ~total:(String.length payload) ~first)

let decode_record t data =
  let c = Codec.cursor data in
  match Codec.get_u8 c with
  | tag when tag = tag_inline -> Some (Codec.get_raw c (Codec.remaining c))
  | tag when tag = tag_head ->
      let total = Codec.get_u32 c in
      let first = decode_rid c in
      Some (read_chain t total first)
  | tag when tag = tag_chunk -> None
  | tag -> raise (Codec.Corrupt (Printf.sprintf "heap: bad tag %d" tag))

(* A record of more than a page: its head, decoded once its page is
   unpinned. *)
exception Chained of string

let get_with t rid read =
  if rid.page <= 0 || rid.page >= Buffer_pool.page_count t.pool then None
  else
    match
      Buffer_pool.with_page t.pool rid.page (fun f ->
          let p = Buffer_pool.data f in
          match Page.record_at p rid.slot with
          | -1 -> None
          | off ->
              let len = Page.record_length p rid.slot in
              if len = 0 then raise (Codec.Corrupt "heap: empty record");
              let tag = Char.code (Bigbytes.get p off) in
              if tag = tag_inline then Some (read p (off + 1) (len - 1))
              else if tag = tag_head then raise_notrace (Chained (Bigbytes.sub_string p off len))
              else if tag = tag_chunk then None
              else raise (Codec.Corrupt (Printf.sprintf "heap: bad tag %d" tag)))
    with
    | found -> found
    | exception Chained head ->
        Option.map
          (fun s -> read (Bigbytes.of_string s) 0 (String.length s))
          (decode_record t head)

let get t rid = get_with t rid Bigbytes.sub_string

let delete t rid =
  match raw_get t rid with
  | None -> false
  | Some data -> (
      let c = Codec.cursor data in
      match Codec.get_u8 c with
      | tag when tag = tag_inline ->
          t.records <- t.records - 1;
          raw_delete t rid
      | tag when tag = tag_head ->
          let _total = Codec.get_u32 c in
          let first = decode_rid c in
          free_chain t first;
          t.records <- t.records - 1;
          raw_delete t rid
      | _ -> false)

let update t rid payload =
  match raw_get t rid with
  | None -> invalid_arg "heap: update of dead rid"
  | Some old ->
      let was_inline = Char.code old.[0] = tag_inline in
      if was_inline && String.length payload <= inline_limit then begin
        let fits =
          Buffer_pool.with_page t.pool rid.page (fun f ->
              let p = Buffer_pool.data f in
              let ok = Page.update p rid.slot ("\001" ^ payload) in
              if ok then begin
                Buffer_pool.mark_dirty t.pool f;
                Fsm.set t.fsm rid.page (Page.free_space p)
              end;
              ok)
        in
        if fits then rid
        else begin
          ignore (delete t rid);
          insert t payload
        end
      end
      else begin
        ignore (delete t rid);
        insert t payload
      end

let iter t f =
  for n = 1 to Buffer_pool.page_count t.pool - 1 do
    (* Collect slots first: the callback may mutate the page we hold. *)
    let entries =
      Buffer_pool.with_page t.pool n (fun fr ->
          let acc = ref [] in
          Page.iter (Buffer_pool.data fr) (fun slot data -> acc := (slot, data) :: !acc);
          List.rev !acc)
    in
    List.iter
      (fun (slot, data) ->
        match decode_record t data with
        | Some payload -> f { page = n; slot } payload
        | None -> ())
      entries
  done

(* Delete every head/inline record the caller does not recognise as live
   (plus its overflow chain). Run after recovery: a crash between the heap
   flush and the directory flush can persist records whose directory entry
   never made it to disk. *)
let sweep_orphans t ~live =
  let victims = ref [] in
  for n = 1 to Buffer_pool.page_count t.pool - 1 do
    Buffer_pool.with_page t.pool n (fun f ->
        Page.iter_first_byte (Buffer_pool.data f) (fun slot tag ->
            if tag <> tag_chunk then begin
              let rid = { page = n; slot } in
              if not (live rid) then victims := rid :: !victims
            end))
  done;
  List.iter (fun rid -> ignore (delete t rid)) !victims;
  List.length !victims

let record_count t = t.records
let page_count t = Buffer_pool.page_count t.pool

let flush t =
  (match Failpoint.hit fp_flush with
  | Some Failpoint.Crash_site -> Failpoint.crash fp_flush
  | Some _ | None -> ());
  Buffer_pool.flush_all t.pool
