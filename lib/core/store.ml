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

let put_header b h =
  match h with
  | { hcurrent = 0; hversions = [ 0 ] } -> Codec.put_u8 b 0
  | _ ->
      Codec.put_varint b (List.length h.hversions + 1);
      Codec.put_varint b h.hcurrent;
      List.iter (Codec.put_varint b) h.hversions

let read_header c =
  match Codec.get_varint c with
  | 0 -> unversioned
  | k ->
      let n = k - 1 in
      let hcurrent = Codec.get_varint c in
      if n > Codec.remaining c then raise (Codec.Corrupt "object record: version count past the end");
      { hcurrent; hversions = List.init n (fun _ -> Codec.get_varint c) }

let put_oid b (o : Oid.t) =
  Codec.put_varint b o.cls;
  Codec.put_varint b o.num

let rec put_slot b (t : Otype.t) (v : Value.t) =
  match (t, v) with
  | TInt, Int n -> Codec.put_svarint b n
  | TBool, Bool x -> Codec.put_bool b x
  | TString, Str s ->
      Codec.put_varint b (String.length s);
      Buffer.add_string b s
  | TFloat, Float f ->
      Codec.put_u8 b 0;
      Codec.put_float b f
  | TFloat, Int n ->
      Codec.put_u8 b 1;
      Codec.put_svarint b n
  | TRef _, Null -> Codec.put_u8 b 0
  | TRef _, Ref o ->
      Codec.put_u8 b 1;
      put_oid b o
  | TRef _, Vref vr ->
      Codec.put_u8 b 2;
      put_oid b vr.oid;
      Codec.put_varint b vr.ver
  | TSet t, VSet vs | TList t, VList vs ->
      Codec.put_varint b (List.length vs);
      List.iter (put_slot b t) vs
  | _ -> invalid_arg (Format.asprintf "Store.put_slot: %a is not a %s" Value.pp v (Otype.to_string t))

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

let put_slots b (l : Catalog.layout) slots =
  if Array.length slots <> Array.length l.fields then
    invalid_arg
      (Printf.sprintf "Store: %d slots for a layout of %d fields" (Array.length slots)
         (Array.length l.fields));
  Array.iteri (fun i v -> put_slot b l.fields.(i).Schema.ftype v) slots

let read_slots c (l : Catalog.layout) =
  let slots = Array.map (fun (f : Schema.field) -> get_slot c f.ftype) l.fields in
  if not (Codec.at_end c) then raise (Codec.Corrupt "object record: trailing bytes");
  slots

let encode_object db oid h slots =
  let b = Buffer.create 32 in
  put_header b h;
  put_slots b (layout db oid) slots;
  Buffer.contents b

let encode_version db oid slots =
  let b = Buffer.create 32 in
  put_slots b (layout db oid) slots;
  Buffer.contents b

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

(* The two overlay choke points: every mutation in this module funnels
   through them. A detached read txn is rejected before the overlay — or
   any shared structure — is touched, so the server can replay the request
   in a write transaction. *)
let write txn key payload =
  if txn.tro then raise Read_only_txn;
  txn.wcount <- txn.wcount + 1;
  Hashtbl.replace txn.writes key (Put payload)

let remove txn key =
  if txn.tro then raise Read_only_txn;
  txn.wcount <- txn.wcount + 1;
  Hashtbl.replace txn.writes key Del

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

let applicable_indexes db (cls : Schema.cls) =
  let ancestors = List.map (fun (a : Schema.cls) -> a.Schema.name) (Catalog.lineage db.catalog cls) in
  let rec go i = function
    | [] -> []
    | (icls, field) :: rest ->
        if List.mem icls ancestors then (i, field) :: go (i + 1) rest else go (i + 1) rest
  in
  go 0 (Catalog.indexes db.catalog)

let index_ids db ~cls ~field =
  let rec go i = function
    | [] -> None
    | (c, f) :: rest -> if c = cls && f = field then Some i else go (i + 1) rest
  in
  go 0 (Catalog.indexes db.catalog)

(* Indexed fields exist in every class the index applies to. *)
let slot_exn l fname =
  match Catalog.slot l fname with Some i -> i | None -> type_error "no field %s" fname

let index_put txn ~idx_id ~value ~oid =
  write txn (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid) ""

let index_del txn ~idx_id ~value ~oid =
  remove txn (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid)

(* -- conformance -------------------------------------------------------------------- *)

let next_num db cls_id = Option.value (Hashtbl.find_opt db.meta.next_nums cls_id) ~default:0

let conforms db (field : Schema.field) v =
  let class_of oid = Option.map (fun (c : Schema.cls) -> c.Schema.name) (class_of db oid) in
  let subclass ~sub ~super = Catalog.is_subclass db.catalog ~sub ~super in
  Otype.conforms ~subclass field.ftype v ~class_of

let check_conform db cls_name (field : Schema.field) v =
  if not (conforms db field v) then
    type_error "class %s: field %s expects %s, got %a" cls_name field.fname
      (Otype.to_string field.ftype) Value.pp v

(* -- mutations ------------------------------------------------------------------------ *)

let touch txn oid = Hashtbl.replace txn.touched oid ()

let create txn (cls : Schema.cls) inits =
  let db = txn.tdb in
  (* Guard before the oid counter bump: [create] mutates shared meta state
     ahead of its overlay writes. *)
  if txn.tro then raise Read_only_txn;
  if not (Catalog.has_cluster db.catalog cls) then
    Ode_util.Ode_error.user "no cluster exists for class %s (use: create cluster %s;)" cls.Schema.name
      cls.Schema.name;
  let l = Catalog.layout db.catalog cls in
  let given = Array.make (Array.length l.fields) None in
  List.iter
    (fun (n, v) ->
      match Catalog.slot l n with
      | Some i -> if Option.is_none given.(i) then given.(i) <- Some v
      | None -> type_error "class %s has no field %s" cls.Schema.name n)
    inits;
  let slots =
    Array.mapi
      (fun i (f : Schema.field) ->
        let v =
          match given.(i) with
          | Some v -> v
          | None -> (
              (* Member initializer if declared, else the type's zero.
                 Initializers are closed expressions (enforced at class
                 definition time), so the detached evaluator suffices. *)
              match f.fdefault with
              | Some e -> (
                  match
                    Ode_model.Eval.eval Ode_model.Eval.null_hooks ~vars:[] ~this:None e
                  with
                  | v -> v
                  | exception Ode_model.Eval.Error msg ->
                      type_error "class %s: default for %s failed: %s" cls.Schema.name f.fname msg)
              | None -> Otype.default_value f.ftype)
        in
        check_conform db cls.Schema.name f v;
        v)
      l.fields
  in
  let num = next_num db cls.Schema.id in
  Hashtbl.replace db.meta.next_nums cls.Schema.id (num + 1);
  txn.meta_dirty <- true;
  let oid : Oid.t = { cls = cls.Schema.id; num } in
  write txn (Keys.header oid) (encode_object db oid unversioned slots);
  List.iter
    (fun (idx_id, fname) -> index_put txn ~idx_id ~value:slots.(slot_exn l fname) ~oid)
    (applicable_indexes db cls);
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
  let l = Catalog.layout txn.tdb.catalog cls in
  List.iter
    (fun (idx_id, fname) ->
      let i = slot_exn l fname in
      let old_v = old_slots.(i) and new_v = new_slots.(i) in
      if not (Value.equal old_v new_v) then begin
        index_del txn ~idx_id ~value:old_v ~oid;
        index_put txn ~idx_id ~value:new_v ~oid
      end)
    (applicable_indexes txn.tdb cls)

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
  let l = Catalog.layout db.catalog cls in
  List.iter
    (fun ver -> if ver <> h.hcurrent then remove txn (Keys.version oid ver))
    h.hversions;
  remove txn (Keys.header oid);
  List.iter
    (fun (idx_id, fname) -> index_del txn ~idx_id ~value:cur.(slot_exn l fname) ~oid)
    (applicable_indexes db cls);
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
   deletes alike. The stats hook rides this single apply path, so commit
   apply, recovery replay and standby apply all maintain the same
   cardinality counters; a replayed/replicated analyze snapshot installs
   itself the same way. *)
let apply_writes db ops =
  let index_ops = ref [] and kv_ops = ref [] in
  List.iter
    (fun ((key, op) as write) ->
      if Keys.is_index_key key then
        let present = match op with Put _ -> Some "" | Del -> None in
        index_ops := (Keys.index_tree_key key, present) :: !index_ops
      else begin
        (match op with Put payload when key = Keys.stats -> Ostats.install db payload | _ -> ());
        kv_ops := write :: !kv_ops
      end)
    ops;
  Bptree.apply_sorted db.idx (Array.of_list (List.rev !index_ops));
  Kv.apply_sorted db
    (Array.of_list (List.rev !kv_ops))
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
