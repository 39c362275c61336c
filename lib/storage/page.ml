let size = 4096

(* The last [trailer_bytes] of every page are reserved for the disk layer's
   checksum; the slotted layout never touches them. *)
let trailer_bytes = 8
let data_end = size - trailer_bytes
let header_bytes = 8
let slot_bytes = 4
let dead = 0xffff
let max_record = data_end - header_bytes - slot_bytes

type t = Bigbytes.t

(* -- raw field access --------------------------------------------------- *)

let get16 = Bigbytes.get_uint16_le
let set16 p off v = Bigbytes.set_uint16_le p off (v land 0xffff)

let nslots p = get16 p 0
let free_lo p = get16 p 2 (* first byte past the slot directory *)
let free_hi p = get16 p 4 (* first byte of record data *)
let set_nslots p v = set16 p 0 v
let set_free_lo p v = set16 p 2 v
let set_free_hi p v = set16 p 4 v
let slot_off i = header_bytes + (i * slot_bytes)
let slot_pos p i = get16 p (slot_off i)
let slot_len p i = get16 p (slot_off i + 2)

let set_slot p i ~pos ~len =
  set16 p (slot_off i) pos;
  set16 p (slot_off i + 2) len

(* -- formatting ---------------------------------------------------------- *)

let reset p =
  Bigbytes.fill p 0 size '\000';
  set_nslots p 0;
  set_free_lo p header_bytes;
  set_free_hi p data_end

let create () =
  let p = Bigbytes.create size in
  reset p;
  p

(* -- queries ------------------------------------------------------------- *)

let live p i = i >= 0 && i < nslots p && slot_pos p i <> dead

let live_count p =
  let n = ref 0 in
  for i = 0 to nslots p - 1 do
    if slot_pos p i <> dead then incr n
  done;
  !n

let find_dead_slot p =
  let rec go i = if i >= nslots p then None else if slot_pos p i = dead then Some i else go (i + 1) in
  go 0

(* Total reclaimable bytes: the gap plus dead record space. *)
let total_free p =
  let gap = free_hi p - free_lo p in
  let dead_bytes = ref 0 in
  (* dead record bytes were already returned to the gap by compaction or are
     unreachable until compaction; we track them by summing live data and
     comparing with the used region. *)
  let live_bytes = ref 0 in
  for i = 0 to nslots p - 1 do
    if slot_pos p i <> dead then live_bytes := !live_bytes + slot_len p i
  done;
  dead_bytes := data_end - free_hi p - !live_bytes;
  gap + !dead_bytes

let free_space p =
  let extra_slot = if find_dead_slot p = None then slot_bytes else 0 in
  max 0 (total_free p - extra_slot)

(* -- compaction ---------------------------------------------------------- *)

(* Slide all live records to the end of the page, preserving slot numbers:
   the last slot's record highest. The record area is copied aside first,
   since slot order need not be the records' order in the page. *)
let compact p =
  let lo = free_hi p in
  let scratch = Bigbytes.sub p lo (data_end - lo) in
  let hi = ref data_end in
  for i = nslots p - 1 downto 0 do
    let pos = slot_pos p i in
    if pos <> dead then begin
      let len = slot_len p i in
      hi := !hi - len;
      Bigbytes.blit scratch (pos - lo) p !hi len;
      set_slot p i ~pos:!hi ~len
    end
  done;
  set_free_hi p !hi

(* -- mutation ------------------------------------------------------------ *)

let insert p data =
  let len = String.length data in
  if len > max_record then None
  else
    let reuse = find_dead_slot p in
    let slot_cost = if reuse = None then slot_bytes else 0 in
    if total_free p < len + slot_cost then None
    else begin
      if free_hi p - free_lo p < len + slot_cost then compact p;
      let slot =
        match reuse with
        | Some i -> i
        | None ->
            let i = nslots p in
            set_nslots p (i + 1);
            set_free_lo p (free_lo p + slot_bytes);
            i
      in
      let pos = free_hi p - len in
      Bigbytes.blit_from_string data 0 p pos len;
      set_free_hi p pos;
      set_slot p slot ~pos ~len;
      Some slot
    end

let get p i =
  if live p i then Some (Bigbytes.sub_string p (slot_pos p i) (slot_len p i)) else None

let record_at p i = if live p i then slot_pos p i else -1
let record_length = slot_len

let delete p i =
  if not (live p i) then false
  else begin
    (* If this record is the lowest one, we can grow the gap immediately;
       otherwise the space is reclaimed by the next compaction. *)
    let pos = slot_pos p i and len = slot_len p i in
    if pos = free_hi p then set_free_hi p (pos + len);
    set_slot p i ~pos:dead ~len:0;
    true
  end

let update p i data =
  if not (live p i) then false
  else
    let len = String.length data in
    let old_len = slot_len p i in
    if len <= old_len then begin
      (* Shrink in place; tail bytes become dead space until compaction. *)
      let pos = slot_pos p i in
      Bigbytes.blit_from_string data 0 p pos len;
      set_slot p i ~pos ~len;
      true
    end
    else begin
      (* Logically free the old record, then place the new one. *)
      let pos = slot_pos p i and old = slot_len p i in
      if pos = free_hi p then set_free_hi p (pos + old);
      set_slot p i ~pos:dead ~len:0;
      if total_free p < len then begin
        (* Undo: restore the old record descriptor (bytes are intact unless
           we grew the gap over them, which only happens when pos = free_hi
           before, so restore free_hi too). *)
        if free_hi p = pos + old then set_free_hi p pos;
        set_slot p i ~pos ~len:old;
        false
      end
      else begin
        if free_hi p - free_lo p < len then compact p;
        let npos = free_hi p - len in
        Bigbytes.blit_from_string data 0 p npos len;
        set_free_hi p npos;
        set_slot p i ~pos:npos ~len;
        true
      end
    end

let iter p f =
  for i = 0 to nslots p - 1 do
    if slot_pos p i <> dead then f i (Bigbytes.sub_string p (slot_pos p i) (slot_len p i))
  done

let iter_first_byte p f =
  for i = 0 to nslots p - 1 do
    if slot_pos p i <> dead && slot_len p i > 0 then f i (Char.code (Bigbytes.get p (slot_pos p i)))
  done

(* -- invariants ----------------------------------------------------------- *)

let check p =
  let n = nslots p in
  let lo = free_lo p and hi = free_hi p in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if n < 0 || header_bytes + (n * slot_bytes) <> lo then fail "slot dir/free_lo mismatch"
  else if lo > hi || hi > data_end then fail "free pointers out of order (%d,%d)" lo hi
  else
    let spans = ref [] in
    let bad = ref None in
    for i = 0 to n - 1 do
      let pos = slot_pos p i in
      if pos <> dead then begin
        let len = slot_len p i in
        if pos < hi || pos + len > data_end then bad := Some (Printf.sprintf "slot %d out of data area" i)
        else spans := (pos, pos + len) :: !spans
      end
    done;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let sorted = List.sort compare !spans in
        let rec overlaps = function
          | (_, e1) :: ((s2, _) :: _ as rest) -> if e1 > s2 then true else overlaps rest
          | _ -> false
        in
        if overlaps sorted then Error "overlapping records" else Ok ()
