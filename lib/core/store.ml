module Codec = Ode_util.Codec
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Otype = Ode_model.Otype
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Bptree = Ode_index.Bptree
open Types

let c_objects_fetched = Ode_util.Stats.counter "objects_fetched"

exception Type_error of string
exception No_cluster of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

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

let get_header c =
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

let get_slots c (l : Catalog.layout) =
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

let decode_header s = get_header (Codec.cursor s)

let decode_object db oid s =
  let l = layout db oid in
  let c = Codec.cursor s in
  let h = get_header c in
  (h, get_slots c l)

let decode_version db oid s = get_slots (Codec.cursor s) (layout db oid)

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

let read db txn key =
  let from_writes =
    match txn with
    | Some t -> Hashtbl.find_opt t.writes key
    | None -> None
  in
  match from_writes with
  | Some (Put s) -> Some s
  | Some Del -> None
  | None -> (
      match Mvcc.read db.mvcc ~read_ts:(read_ts_of txn) key with
      | Mvcc.Older v -> v
      | Mvcc.Latest -> Kv.get db key)

(* The two overlay choke points: every mutation in this module funnels
   through them. A detached read txn (reader domain) is rejected before the
   overlay — or any shared structure — is touched, so the server can replay
   the request on the writer domain. *)
let write txn key payload =
  if txn.tro then raise Read_only_txn;
  Hashtbl.replace txn.writes key (Put payload)

let remove txn key =
  if txn.tro then raise Read_only_txn;
  Hashtbl.replace txn.writes key Del

(* -- object reads -------------------------------------------------------------- *)

(* Reads go overlay -> MVCC chains -> decoded-object cache -> committed KV.
   The cache is only consulted and only populated when the transaction has
   no pending write for the key and the key has not changed past its
   snapshot, so it never absorbs or serves uncommitted or superseded
   state. *)

let pending txn key =
  match txn with Some t -> Hashtbl.find_opt t.writes key | None -> None

(* Where a read found a record: still encoded (an overlay write, a snapshot
   image, or a KV fetch with the cache off), or decoded from the cache. *)
type 'a found = Raw of string | Decoded of 'a

let lookup db txn key oid ~decode ~wrap ~unwrap =
  match pending txn key with
  | Some (Put s) -> Some (Raw s)
  | Some Del -> None
  | None -> (
      (* Snapshot resolution before the cache: the decoded-object cache
         holds only the *latest* committed state, so a read that an MVCC
         chain answers (the key changed past this snapshot) bypasses it
         entirely — in both directions: never served from it, never
         populated into it. *)
      match Mvcc.read db.mvcc ~read_ts:(read_ts_of txn) key with
      | Mvcc.Older None -> None
      | Mvcc.Older (Some s) -> Some (Raw s)
      | Mvcc.Latest -> (
          match Option.bind (Ocache.find db key) unwrap with
          | Some d -> Some (Decoded d)
          | None -> (
              match Kv.get db key with
              | None -> None
              | Some s when Ocache.enabled db ->
                  Ode_util.Stats.incr c_objects_fetched;
                  let d = decode db oid s in
                  Ocache.add db key (wrap d);
                  Some (Decoded d)
              | Some s -> Some (Raw s))))

(* An object's 'H' record. With the cache on, a miss decodes the header and
   the current fields together and caches both as one entry. *)
let find_object db txn oid =
  lookup db txn (Keys.header oid) oid ~decode:decode_object
    ~wrap:(fun (h, slots) -> Cobject (h, slots))
    ~unwrap:(function Cobject (h, slots) -> Some (h, slots) | Cversion _ -> None)

let header_of = function Raw s -> decode_header s | Decoded (h, _) -> h

let object_of db oid = function
  | Raw s ->
      Ode_util.Stats.incr c_objects_fetched;
      decode_object db oid s
  | Decoded o -> o

let get_header db txn oid = Option.map header_of (find_object db txn oid)
let get_object db txn oid = Option.map (object_of db oid) (find_object db txn oid)
let exists db txn oid = find_object db txn oid <> None
let class_of db (oid : Oid.t) = Catalog.find_by_id db.catalog oid.cls

let get_slots db txn oid = Option.map snd (get_object db txn oid)

(* A non-current version's own record. *)
let find_version db txn (vr : Oid.vref) =
  match
    lookup db txn (Keys.version vr.oid vr.ver) vr.oid ~decode:decode_version
      ~wrap:(fun slots -> Cversion slots)
      ~unwrap:(function Cversion slots -> Some slots | Cobject _ -> None)
  with
  | None -> None
  | Some (Decoded slots) -> Some slots
  | Some (Raw s) ->
      Ode_util.Stats.incr c_objects_fetched;
      Some (decode_version db vr.oid s)

(* Resolved through the header at the reader's snapshot: the version that
   was current then has its fields in that 'H' image, even if a later
   [new_version] has since moved them into a 'V' record. *)
let get_slots_v db txn (vr : Oid.vref) =
  match find_object db txn vr.oid with
  | None -> None
  | Some found ->
      let h = header_of found in
      if vr.ver = h.hcurrent then Some (snd (object_of db vr.oid found))
      else find_version db txn vr

let get_fields db txn oid = Option.map (named_fields db oid) (get_slots db txn oid)

let get_fields_v db txn (vr : Oid.vref) =
  Option.map (named_fields db vr.oid) (get_slots_v db txn vr)

(* A field name resolves to a slot through the layout of the oid's own
   class, so one inherited name read across a deep extent finds each
   subclass's slot. *)
let slot_value db (oid : Oid.t) slots fname =
  match Catalog.layout_of_id db.catalog oid.cls with
  | None -> None
  | Some l -> ( match Catalog.slot l fname with Some i -> Some slots.(i) | None -> None)

let get_field db txn oid fname =
  match get_slots db txn oid with None -> None | Some slots -> slot_value db oid slots fname

let get_field_v db txn (vr : Oid.vref) fname =
  match get_slots_v db txn vr with
  | None -> None
  | Some slots -> slot_value db vr.oid slots fname

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
  if not (Catalog.has_cluster db.catalog cls) then raise (No_cluster cls.Schema.name);
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
  let nums = db.meta.next_nums in
  let num = Option.value (Hashtbl.find_opt nums cls.Schema.id) ~default:0 in
  Hashtbl.replace nums cls.Schema.id (num + 1);
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

(* One transaction's write set, in key order: index entries go to the
   index tree, everything else to the KV. The stats hook rides this single
   apply path, so commit apply, recovery replay and standby apply all
   maintain the same cardinality counters; a replayed/replicated analyze
   snapshot installs itself the same way. *)
let apply_writes db ops =
  let index_puts = ref [] and kv_puts = ref [] in
  List.iter
    (fun (key, op) ->
      if Keys.is_index_key key then
        match op with
        | Put _ -> index_puts := (Keys.index_tree_key key, "") :: !index_puts
        | Del -> ignore (Bptree.delete db.idx (Keys.index_tree_key key))
      else
        match op with
        | Put payload ->
            if key = Keys.stats then Ostats.install db payload;
            kv_puts := (key, payload) :: !kv_puts
        | Del ->
            if Keys.is_header_key key && Kv.mem db key then Ostats.note_delete db key;
            Kv.delete db key)
    ops;
  Bptree.insert_sorted db.idx (Array.of_list (List.rev !index_puts));
  Kv.put_sorted db
    (Array.of_list (List.rev !kv_puts))
    ~on_new:(fun key -> if Keys.is_header_key key then Ostats.note_create db key)

(* The current committed value of a logical key — the pre-image the MVCC
   layer records as a new chain's base entry just before a commit applies
   over it. Index entries live in the index tree (present = [Some ""]),
   everything else in the KV. Called under the exclusive latch. *)
let committed_image db key =
  if Keys.is_index_key key then
    if Bptree.find db.idx (Keys.index_tree_key key) <> None then Some "" else None
  else Kv.get db key
