module Codec = Ode_util.Codec
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Otype = Ode_model.Otype
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Bptree = Ode_index.Bptree
open Types

let c_objects_fetched = Ode_util.Stats.counter "objects_fetched"

let type_error fmt = Ode_util.Ode_error.user ("type error: " ^^ fmt)

type header = Types.header = { hcurrent : int; hversions : int list }

(* Records are described by the schema, not by themselves. The 'H' record
   is a header followed by one slot per field of the class's layout; a 'V'
   record is the slots alone. The class comes from the oid in the key, and
   it fixes the slot count, the field names and each slot's type, so none
   of them is written.

   The header of an object never versioned (current 0, versions [0]) is
   the single byte 0. Any other is [varint (count + 1)][varint hcurrent]
   then a [varint] per version, newest first.

   A slot is written by its field's declared type, with no value tag:
   - int: zigzag varint;
   - bool: one byte;
   - string: varint length, then the bytes;
   - float: a discriminator byte, because a float field may hold an [Int]
     that must read back as one: 0 and the 8-byte IEEE image, or 1 and a
     zigzag varint;
   - ref: a discriminator byte, 0 for null, 1 for a ref, 2 for a vref,
     then varint class, varint number and, for a vref, varint version;
   - set and list: varint count, then each element by the element type.
   Only a conforming value ([check_conform]) is ever written. *)

let unversioned = { hcurrent = 0; hversions = [ 0 ] }

(* Records are built once, at their final size: each part's [_size]
   first, then its [set_] writes it at a position and returns the one
   past it. *)

let header_size = function
  | { hcurrent = 0; hversions = [ 0 ] } -> 1
  | h ->
      List.fold_left
        (fun n v -> n + Codec.varint_size v)
        (Codec.varint_size (List.length h.hversions + 1) + Codec.varint_size h.hcurrent)
        h.hversions

let set_header b pos h =
  match h with
  | { hcurrent = 0; hversions = [ 0 ] } -> Codec.set_varint b pos 0
  | _ ->
      let pos = Codec.set_varint b pos (List.length h.hversions + 1) in
      List.fold_left (Codec.set_varint b) (Codec.set_varint b pos h.hcurrent) h.hversions

let read_header c =
  match Codec.get_varint c with
  | 0 -> unversioned
  | k ->
      let n = k - 1 in
      let hcurrent = Codec.get_varint c in
      if n > Codec.remaining c then raise (Codec.Corrupt "object record: version count past the end");
      { hcurrent; hversions = List.init n (fun _ -> Codec.get_varint c) }

let oid_size (o : Oid.t) = Codec.varint_size o.cls + Codec.varint_size o.num
let set_oid b pos (o : Oid.t) = Codec.set_varint b (Codec.set_varint b pos o.cls) o.num

let bad_slot t v =
  invalid_arg (Format.asprintf "Store.put_slot: %a is not a %s" Value.pp v (Otype.to_string t))

let rec slot_size (t : Otype.t) (v : Value.t) =
  match (t, v) with
  | TInt, Int n -> Codec.svarint_size n
  | TBool, Bool _ -> 1
  | TString, Str s -> Codec.varint_size (String.length s) + String.length s
  | TFloat, Float _ -> 9
  | TFloat, Int n -> 1 + Codec.svarint_size n
  | TRef _, Null -> 1
  | TRef _, Ref o -> 1 + oid_size o
  | TRef _, Vref vr -> 1 + oid_size vr.oid + Codec.varint_size vr.ver
  | TSet t, VSet vs | TList t, VList vs ->
      List.fold_left (fun n v -> n + slot_size t v) (Codec.varint_size (List.length vs)) vs
  | _ -> bad_slot t v

let rec set_slot b pos (t : Otype.t) (v : Value.t) =
  match (t, v) with
  | TInt, Int n -> Codec.set_svarint b pos n
  | TBool, Bool x ->
      Bytes.set b pos (if x then '\001' else '\000');
      pos + 1
  | TString, Str s ->
      let pos = Codec.set_varint b pos (String.length s) in
      Bytes.blit_string s 0 b pos (String.length s);
      pos + String.length s
  | TFloat, Float f ->
      Bytes.set b pos '\000';
      Bytes.set_int64_le b (pos + 1) (Int64.bits_of_float f);
      pos + 9
  | TFloat, Int n ->
      Bytes.set b pos '\001';
      Codec.set_svarint b (pos + 1) n
  | TRef _, Null ->
      Bytes.set b pos '\000';
      pos + 1
  | TRef _, Ref o ->
      Bytes.set b pos '\001';
      set_oid b (pos + 1) o
  | TRef _, Vref vr ->
      Bytes.set b pos '\002';
      Codec.set_varint b (set_oid b (pos + 1) vr.oid) vr.ver
  | TSet t, VSet vs | TList t, VList vs ->
      List.fold_left (fun pos v -> set_slot b pos t v) (Codec.set_varint b pos (List.length vs)) vs
  | _ -> bad_slot t v

let put_slot buf t v =
  let b = Bytes.create (slot_size t v) in
  ignore (set_slot b 0 t v);
  Buffer.add_bytes buf b

let get_oid c : Oid.t =
  let cls = Codec.get_varint c in
  { cls; num = Codec.get_varint c }

let rec get_slot c (t : Otype.t) : Value.t =
  match t with
  | TInt -> Int (Codec.get_svarint c)
  | TBool -> Bool (Codec.get_bool c)
  | TString ->
      let n = Codec.get_varint c in
      Str (Codec.get_raw c n)
  | TFloat -> (
      match Codec.get_u8 c with
      | 0 -> Float (Codec.get_float c)
      | 1 -> Int (Codec.get_svarint c)
      | d -> raise (Codec.Corrupt (Printf.sprintf "float slot: bad discriminator %d" d)))
  | TRef _ -> (
      match Codec.get_u8 c with
      | 0 -> Null
      | 1 -> Ref (get_oid c)
      | 2 ->
          let oid = get_oid c in
          Vref { oid; ver = Codec.get_varint c }
      | d -> raise (Codec.Corrupt (Printf.sprintf "ref slot: bad discriminator %d" d)))
  | TSet t -> VSet (get_elements c t)
  | TList t -> VList (get_elements c t)

(* Every element takes at least a byte, so a count past the end is
   corrupt before anything is allocated for it. *)
and get_elements c t =
  let n = Codec.get_varint c in
  if n > Codec.remaining c then raise (Codec.Corrupt "slot: element count past the end");
  List.init n (fun _ -> get_slot c t)

let layout db (oid : Oid.t) =
  match Catalog.layout_of_id db.catalog oid.cls with
  | Some l -> l
  | None -> raise (Codec.Corrupt (Format.asprintf "object %a: unknown class id %d" Oid.pp oid oid.cls))

let read_slots c (l : Catalog.layout) =
  let slots = Array.map (fun (f : Schema.field) -> get_slot c f.ftype) l.fields in
  if not (Codec.at_end c) then raise (Codec.Corrupt "object record: trailing bytes");
  slots

(* The record of [slots] in layout [l], behind the header [h] when
   [head], in one string of its final size. *)
let encode_record (l : Catalog.layout) ~head h slots =
  let fields = l.fields in
  if Array.length slots <> Array.length fields then
    invalid_arg
      (Printf.sprintf "Store: %d slots for a layout of %d fields" (Array.length slots) (Array.length fields));
  let size = ref (if head then header_size h else 0) in
  for i = 0 to Array.length slots - 1 do
    size := !size + slot_size fields.(i).Schema.ftype slots.(i)
  done;
  let b = Bytes.create !size in
  let pos = ref (if head then set_header b 0 h else 0) in
  for i = 0 to Array.length slots - 1 do
    pos := set_slot b !pos fields.(i).Schema.ftype slots.(i)
  done;
  assert (!pos = !size);
  Bytes.unsafe_to_string b

let encode_object db oid h slots = encode_record (layout db oid) ~head:true h slots
let encode_version db oid slots = encode_record (layout db oid) ~head:false unversioned slots

let decode_header s = read_header (Codec.cursor s)

let decode_object db oid s =
  let l = layout db oid in
  let c = Codec.cursor s in
  let h = read_header c in
  (h, read_slots c l)

let decode_version db oid s = read_slots (Codec.cursor s) (layout db oid)

(* The edge where slots become named fields again, for callers that show
   or export whole objects. *)
let named_fields db oid slots =
  let l = layout db oid in
  List.init (Array.length slots) (fun i -> (l.fields.(i).Schema.fname, slots.(i)))

(* -- overlay ---------------------------------------------------------------- *)

(* The snapshot a read resolves against: the transaction's read timestamp,
   or "latest" for embedded callers that pass no transaction (max_int makes
   every chain head visible, i.e. the plain committed state). *)
let read_ts_of = function Some t -> t.read_ts | None -> max_int

let pending txn key =
  match txn with Some t -> Hashtbl.find_opt t.writes key | None -> None

(* Where a read of [key] resolves: the transaction's own write or the
   image an MVCC chain keeps for its snapshot ([Here]), or the committed
   store ([Committed]), which the caller reads by key or from the
   directory leaf it already holds. *)
type view = Here of string option | Committed

let view db txn key =
  match pending txn key with
  | Some (Put s) -> Here (Some s)
  | Some Del -> Here None
  | None -> (
      match Mvcc.read db.mvcc ~read_ts:(read_ts_of txn) key with
      | Mvcc.Older v -> Here v
      | Mvcc.Latest -> Committed)

let read db txn key = match view db txn key with Here v -> v | Committed -> Kv.get db key

(* The overlay choke point: every mutation in this module funnels
   through it. A detached read txn is rejected before the overlay — or
   any shared structure — is touched, so the server can replay the request
   in a write transaction. *)
let set_op txn key op =
  if txn.tro then raise Read_only_txn;
  txn.wcount <- txn.wcount + 1;
  Hashtbl.replace txn.writes key op

let write txn key payload = set_op txn key (Put payload)
let remove txn key = set_op txn key Del

(* -- object reads -------------------------------------------------------------- *)

(* Reads go overlay -> MVCC chain -> committed KV, whose record sits in a
   pinned directory leaf or heap page, and decode from the record's bytes
   what they need. Nothing decoded outlives the read. [objects_fetched]
   counts the records read for their fields. *)

let fetched () = Ode_util.Stats.incr c_objects_fetched

(* An object's 'H' record. *)
let find_object db txn oid = read db txn (Keys.header oid)

let get_header db txn oid = Option.map decode_header (find_object db txn oid)

let get_object db txn oid =
  match find_object db txn oid with
  | None -> None
  | Some s ->
      fetched ();
      Some (decode_object db oid s)

let exists db txn oid = find_object db txn oid <> None

let class_of db (oid : Oid.t) = Catalog.find_by_id db.catalog oid.cls

let get_slots db txn oid = Option.map snd (get_object db txn oid)

(* A non-current version's own record. *)
let find_version db txn (vr : Oid.vref) =
  match read db txn (Keys.version vr.oid vr.ver) with
  | None -> None
  | Some s ->
      fetched ();
      Some (decode_version db vr.oid s)

(* Resolved through the header at the reader's snapshot: the version that
   was current then has its fields in that 'H' image, even if a later
   [new_version] has since moved them into a 'V' record. *)
let get_slots_v db txn (vr : Oid.vref) =
  match find_object db txn vr.oid with
  | None -> None
  | Some s ->
      let c = Codec.cursor s in
      if vr.ver = (read_header c).hcurrent then begin
        fetched ();
        Some (read_slots c (layout db vr.oid))
      end
      else find_version db txn vr

let get_fields db txn oid = Option.map (named_fields db oid) (get_slots db txn oid)

let get_fields_v db txn (vr : Oid.vref) =
  Option.map (named_fields db vr.oid) (get_slots_v db txn vr)

(* -- rows: records read in place ------------------------------------------------- *)

(* One object's 'H' record as a reader fetched it: its bytes, where its
   slots begin, and the transaction's write count at the fetch. A field is
   read from the bytes when asked for, past the slots in front of it;
   nothing is decoded ahead. *)
type row = { oid : Oid.t; data : string; slots_at : int; wcount : int }

let wcount_of : txn option -> int = function Some t -> t.wcount | None -> 0

(* Past one slot. A string is skipped without a copy; the other types are
   short, or rare in front of a field a predicate reads. *)
let skip_slot c (t : Otype.t) =
  match t with
  | TString -> Codec.skip c (Codec.get_varint c)
  | TInt -> ignore (Codec.get_svarint c)
  | t -> ignore (get_slot c t)

(* [data] is the 'H' record of [oid] as [txn] reads it. *)
let row txn oid data =
  fetched ();
  let c = Codec.cursor data in
  ignore (read_header c);
  { oid; data; slots_at = Codec.pos c; wcount = wcount_of txn }

(* The current object [oid] as [txn] reads it, in one directory lookup. *)
let fetch db txn oid = Option.map (row txn oid) (find_object db txn oid)

(* Slot [i] of the row, past the slots in front of it. *)
let read_slot r i (fields : Schema.field array) =
  let c = Codec.cursor ~pos:r.slots_at r.data in
  for j = 0 to i - 1 do
    skip_slot c fields.(j).ftype
  done;
  get_slot c fields.(i).ftype

let no_field (oid : Oid.t) fname =
  raise (Ode_model.Eval.Error (Format.asprintf "object %a has no field %s" Oid.pp oid fname))

(* A field name resolves to a slot through the layout of the oid's own
   class: under multiple inheritance one inherited name sits at different
   slots in different subclasses. *)
let resolve db cls fname =
  match Catalog.layout_of_id db.catalog cls with
  | None -> None
  | Some (l : Catalog.layout) -> Option.map (fun i -> (i, l.fields)) (Catalog.slot l fname)

let current txn r = r.wcount = wcount_of txn

(* A reader of field [fname] of the rows [txn] fetches, the slot resolved
   once per class, at the first row of it. A row the transaction has
   written since its fetch is read again through the overlay, so a reader
   never returns a field older than the transaction's own write. Raises
   {!Ode_model.Eval.Error} for a row whose class has no such field. *)
let field_reader db txn fname =
  let resolved = ref [] in
  let slot_of cls =
    match List.assq_opt cls !resolved with
    | Some s -> s
    | None ->
        let s = resolve db cls fname in
        resolved := (cls, s) :: !resolved;
        s
  in
  fun r ->
    match slot_of r.oid.cls with
    | None -> no_field r.oid fname
    | Some (i, fields) -> (
        if current txn r then read_slot r i fields
        else
          match get_slots db txn r.oid with
          | Some slots -> slots.(i)
          | None -> no_field r.oid fname)

(* One field of a row the transaction fetched and has not written since. *)
let row_field db r fname =
  Option.map (fun (i, fields) -> read_slot r i fields) (resolve db r.oid.cls fname)

(* Every field of a row, named: decoded from its record while it is
   current, else read again through the overlay. *)
let row_fields db txn r =
  if current txn r then
    Some (named_fields db r.oid (read_slots (Codec.cursor ~pos:r.slots_at r.data) (layout db r.oid)))
  else get_fields db txn r.oid

(* One field of [oid] in [txn]'s view, read in place from its record. *)
let get_field db txn (oid : Oid.t) fname =
  Option.bind (find_object db txn oid) (fun data -> row_field db (row txn oid data) fname)

let get_field_v db txn (vr : Oid.vref) fname =
  match get_slots_v db txn vr with
  | None -> None
  | Some slots -> Option.map (fun (i, _) -> slots.(i)) (resolve db vr.oid.cls fname)

(* -- index plumbing --------------------------------------------------------------- *)

let index_ids db ~cls ~field =
  let rec go i = function
    | [] -> None
    | (c, f) :: rest -> if c = cls && f = field then Some i else go (i + 1) rest
  in
  go 0 (Catalog.indexes db.catalog)

(* An index entry's value: present, with nothing to say. One op serves
   every entry a transaction puts. *)
let present = Put ""

let index_put txn ~idx_id ~value ~oid = set_op txn (Keys.index_of_value ~idx_id ~value ~oid) present

let index_del txn ~idx_id ~value ~oid = remove txn (Keys.index_of_value ~idx_id ~value ~oid)

(* -- conformance -------------------------------------------------------------------- *)

let next_num db cls_id = match Hashtbl.find db.meta.next_nums cls_id with n -> n | exception Not_found -> 0

(* A scalar slot is checked by its type and constructor alone; only a
   reference, a set or a list asks the catalog. *)
let conforms db (field : Schema.field) (v : Value.t) =
  match (field.ftype, v) with
  | TInt, Int _ | TFloat, (Float _ | Int _) | TBool, Bool _ | TString, Str _ | TRef _, Null -> true
  | (TInt | TFloat | TBool | TString), _ -> false
  | t, _ ->
      let class_of oid = Option.map (fun (c : Schema.cls) -> c.Schema.name) (class_of db oid) in
      let subclass ~sub ~super = Catalog.is_subclass db.catalog ~sub ~super in
      Otype.conforms ~subclass t v ~class_of

let check_conform db cls_name (field : Schema.field) v =
  if not (conforms db field v) then
    type_error "class %s: field %s expects %s, got %a" cls_name field.fname
      (Otype.to_string field.ftype) Value.pp v

(* -- mutations ------------------------------------------------------------------------ *)

let touch txn oid = Hashtbl.replace txn.touched oid ()

(* Stands for a slot [create] was given no value for. It is compared by
   address, and allocated when the module starts rather than kept as a
   constant the compiler could share, so no value a caller passes is
   ever taken for it. *)
let unset : Value.t = VList (Sys.opaque_identity [ Value.Null ])

(* Each of [inits] into its slot of [slots], the first value given for a
   field winning. *)
let rec give (cls : Schema.cls) (l : Catalog.layout) slots = function
  | [] -> ()
  | (name, v) :: rest ->
      (match Hashtbl.find l.slots name with
      | i -> if slots.(i) == unset then slots.(i) <- v
      | exception Not_found -> type_error "class %s has no field %s" cls.Schema.name name);
      give cls l slots rest

(* A slot no init gave: the member initializer if declared, else the
   type's zero. Initializers are closed expressions (enforced at class
   definition time), so the detached evaluator suffices. *)
let default_slot (cls : Schema.cls) (f : Schema.field) =
  match f.fdefault with
  | Some e -> (
      match Ode_model.Eval.eval Ode_model.Eval.null_hooks ~vars:[] ~this:None e with
      | v -> v
      | exception Ode_model.Eval.Error msg ->
          type_error "class %s: default for %s failed: %s" cls.Schema.name f.fname msg)
  | None -> Otype.default_value f.ftype

let rec put_indexes txn slots oid = function
  | [] -> ()
  | (idx_id, _, i) :: rest ->
      index_put txn ~idx_id ~value:slots.(i) ~oid;
      put_indexes txn slots oid rest

let create txn (cls : Schema.cls) inits =
  let db = txn.tdb in
  (* Guard before the oid counter bump: [create] mutates shared meta state
     ahead of its overlay writes. *)
  if txn.tro then raise Read_only_txn;
  if not (Catalog.has_cluster db.catalog cls) then
    Ode_util.Ode_error.user "no cluster exists for class %s (use: create cluster %s;)" cls.Schema.name
      cls.Schema.name;
  let l = Catalog.layout db.catalog cls in
  let slots = Array.make (Array.length l.fields) unset in
  give cls l slots inits;
  for i = 0 to Array.length slots - 1 do
    let f = l.fields.(i) in
    if slots.(i) == unset then slots.(i) <- default_slot cls f;
    check_conform db cls.Schema.name f slots.(i)
  done;
  let num = next_num db cls.Schema.id in
  Hashtbl.replace db.meta.next_nums cls.Schema.id (num + 1);
  txn.meta_dirty <- true;
  let oid : Oid.t = { cls = cls.Schema.id; num } in
  write txn (Keys.header oid) (encode_record l ~head:true unversioned slots);
  put_indexes txn slots oid (Catalog.class_indexes db.catalog cls);
  txn.created <- oid :: txn.created;
  touch txn oid;
  oid

let require_object db txn oid =
  match get_object db txn oid with
  | Some o -> o
  | None -> type_error "no such object %a" Oid.pp oid

let cls_of_oid db (oid : Oid.t) =
  match Catalog.find_by_id db.catalog oid.cls with
  | Some c -> c
  | None -> type_error "object of unknown class id %d" oid.cls

(* Move the index entries of [oid] from [old_slots]' values to
   [new_slots]' where they differ. *)
let reindex txn cls oid ~old_slots ~new_slots =
  List.iter
    (fun (idx_id, _, i) ->
      let old_v = old_slots.(i) and new_v = new_slots.(i) in
      if not (Value.equal old_v new_v) then begin
        index_del txn ~idx_id ~value:old_v ~oid;
        index_put txn ~idx_id ~value:new_v ~oid
      end)
    (Catalog.class_indexes txn.tdb.catalog cls)

let update_fields txn oid updates =
  let db = txn.tdb in
  let h, old_slots = require_object db (Some txn) oid in
  let cls = cls_of_oid db oid in
  let l = Catalog.layout db.catalog cls in
  let resolved =
    List.map
      (fun (n, v) ->
        match Catalog.slot l n with
        | None -> type_error "class %s has no field %s" cls.Schema.name n
        | Some i ->
            check_conform db cls.Schema.name l.fields.(i) v;
            (i, v))
      updates
  in
  (* The first update of a field wins, so apply them last to first. *)
  let new_slots = Array.copy old_slots in
  List.iter (fun (i, v) -> new_slots.(i) <- v) (List.rev resolved);
  write txn (Keys.header oid) (encode_object db oid h new_slots);
  reindex txn cls oid ~old_slots ~new_slots;
  touch txn oid

let delete_object txn oid =
  let db = txn.tdb in
  let h, cur = require_object db (Some txn) oid in
  let cls = cls_of_oid db oid in
  List.iter
    (fun ver -> if ver <> h.hcurrent then remove txn (Keys.version oid ver))
    h.hversions;
  remove txn (Keys.header oid);
  List.iter
    (fun (idx_id, _, i) -> index_del txn ~idx_id ~value:cur.(i) ~oid)
    (Catalog.class_indexes db.catalog cls);
  touch txn oid

let new_version txn oid =
  let db = txn.tdb in
  let h, cur = require_object db (Some txn) oid in
  (* [hversions] is newest-first, so the next version number is one past the
     head — no list traversal or append. *)
  let next = match h.hversions with [] -> 0 | newest :: _ -> newest + 1 in
  (* The old current moves to its own record; the new current starts as a
     copy of it in the header record. Index entries are already correct. *)
  write txn (Keys.version oid h.hcurrent) (encode_version db oid cur);
  write txn (Keys.header oid)
    (encode_object db oid { hcurrent = next; hversions = next :: h.hversions } cur);
  touch txn oid;
  next

let delete_version txn (vr : Oid.vref) =
  let db = txn.tdb in
  let h, cur = require_object db (Some txn) vr.oid in
  if not (List.mem vr.ver h.hversions) then
    type_error "object %a has no version %d" Oid.pp vr.oid vr.ver;
  let remaining = List.filter (fun v -> v <> vr.ver) h.hversions in
  match remaining with
  | [] -> delete_object txn vr.oid
  | new_current :: _ when vr.ver = h.hcurrent ->
      (* Promote the newest remaining version (the list is newest-first)
         out of its own record into the header record; the index must now
         reflect its field values instead of the deleted current's. *)
      let new_slots =
        match find_version db (Some txn) { oid = vr.oid; ver = new_current } with
        | Some slots -> slots
        | None -> type_error "object %a: missing version %d" Oid.pp vr.oid new_current
      in
      reindex txn (cls_of_oid db vr.oid) vr.oid ~old_slots:cur ~new_slots;
      remove txn (Keys.version vr.oid new_current);
      write txn (Keys.header vr.oid)
        (encode_object db vr.oid { hcurrent = new_current; hversions = remaining } new_slots);
      touch txn vr.oid
  | _ ->
      remove txn (Keys.version vr.oid vr.ver);
      write txn (Keys.header vr.oid) (encode_object db vr.oid { h with hversions = remaining } cur);
      touch txn vr.oid

(* -- apply (commit & recovery) ----------------------------------------------------------- *)

(* One transaction's write set, in key order, as one batch per tree:
   index entries go to the index tree, everything else to the KV, puts and
   deletes alike. The index entries sort together ('I' keys, between the
   objects and the roots), so the KV is told which run to leave out, and
   only the index tree's batch is built: each entry loses its routing
   tag. The stats hook rides this single apply path, so commit apply,
   recovery replay and standby apply all maintain the same cardinality
   counters; a replayed/replicated analyze snapshot installs itself the
   same way. *)
let index_present = Some ""

let apply_writes db ops =
  Array.iter (function key, Put payload when key = Keys.stats -> Ostats.install db payload | _ -> ()) ops;
  let n = Array.length ops in
  let first = ref 0 in
  while !first < n && not (Keys.is_index_key (fst ops.(!first))) do
    incr first
  done;
  let past = ref !first in
  while !past < n && Keys.is_index_key (fst ops.(!past)) do
    incr past
  done;
  let first = !first and past = !past in
  Bptree.apply_sorted db.idx
    (Array.init (past - first) (fun j ->
         match ops.(first + j) with
         | key, Put _ -> (Keys.index_tree_key key, index_present)
         | key, Del -> (Keys.index_tree_key key, None)));
  Kv.apply_sorted db ops ~skip:(first, past)
    ~on_new:(fun key -> if Keys.is_header_key key then Ostats.note_create db key)
    ~on_gone:(fun key -> if Keys.is_header_key key then Ostats.note_delete db key)

(* The current committed value of a logical key — the pre-image the MVCC
   layer records as a new chain's base entry just before a commit applies
   over it. Index entries live in the index tree (present = [Some ""]),
   everything else in the KV. *)
let committed_image db key =
  if Keys.is_index_key key then
    if Bptree.find db.idx (Keys.index_tree_key key) <> None then Some "" else None
  else Kv.get db key
