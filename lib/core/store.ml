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

type header = Types.header = { hcls : int; hcurrent : int; hversions : int list }

let put_header b h =
  Codec.put_u32 b h.hcls;
  Codec.put_u32 b h.hcurrent;
  Codec.put_u16 b (List.length h.hversions);
  List.iter (Codec.put_u32 b) h.hversions

let get_header c =
  let hcls = Codec.get_u32 c in
  let hcurrent = Codec.get_u32 c in
  let n = Codec.get_u16 c in
  { hcls; hcurrent; hversions = List.init n (fun _ -> Codec.get_u32 c) }

(* The 'H' record: the header, then the current version's fields. *)
let encode_object h fields =
  let b = Buffer.create 128 in
  put_header b h;
  Value.put_fields b fields;
  Buffer.contents b

let decode_header s = get_header (Codec.cursor s)

let decode_object s =
  let c = Codec.cursor s in
  let h = get_header c in
  let fields = Value.get_fields c in
  if not (Codec.at_end c) then raise (Codec.Corrupt "object record: trailing bytes");
  (h, fields)

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

let lookup db txn key ~decode ~wrap ~unwrap =
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
                  let d = decode s in
                  Ocache.add db key (wrap d);
                  Some (Decoded d)
              | Some s -> Some (Raw s))))

(* An object's 'H' record. With the cache on, a miss decodes the header and
   the current fields together and caches both as one entry. *)
let find_object db txn oid =
  lookup db txn (Keys.header oid) ~decode:decode_object
    ~wrap:(fun (h, fs) -> Cobject (h, fs))
    ~unwrap:(function Cobject (h, fs) -> Some (h, fs) | Cversion _ -> None)

let header_of = function Raw s -> decode_header s | Decoded (h, _) -> h

let object_of = function
  | Raw s ->
      Ode_util.Stats.incr c_objects_fetched;
      decode_object s
  | Decoded o -> o

let get_header db txn oid = Option.map header_of (find_object db txn oid)
let get_object db txn oid = Option.map object_of (find_object db txn oid)
let exists db txn oid = find_object db txn oid <> None
let class_of db (oid : Oid.t) = Catalog.find_by_id db.catalog oid.cls
let get_fields db txn oid = Option.map snd (get_object db txn oid)

(* A non-current version's own record. *)
let find_version db txn (vr : Oid.vref) =
  match
    lookup db txn (Keys.version vr.oid vr.ver) ~decode:Value.fields_decode
      ~wrap:(fun fs -> Cversion fs)
      ~unwrap:(function Cversion fs -> Some fs | Cobject _ -> None)
  with
  | None -> None
  | Some (Decoded fs) -> Some fs
  | Some (Raw s) ->
      Ode_util.Stats.incr c_objects_fetched;
      Some (Value.fields_decode s)

(* Resolved through the header at the reader's snapshot: the version that
   was current then has its fields in that 'H' image, even if a later
   [new_version] has since moved them into a 'V' record. *)
let get_fields_v db txn (vr : Oid.vref) =
  match find_object db txn vr.oid with
  | None -> None
  | Some found ->
      let h = header_of found in
      if vr.ver = h.hcurrent then Some (snd (object_of found)) else find_version db txn vr

let get_field db txn oid fname =
  match get_fields db txn oid with None -> None | Some fs -> List.assoc_opt fname fs

let get_field_v db txn vr fname =
  match get_fields_v db txn vr with None -> None | Some fs -> List.assoc_opt fname fs

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

let index_put txn ~idx_id ~value ~oid =
  write txn (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid) ""

let index_del txn ~idx_id ~value ~oid =
  remove txn (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid)

let field_value fields fname =
  match List.assoc_opt fname fields with Some v -> v | None -> Value.Null

(* -- conformance -------------------------------------------------------------------- *)

let check_conform db cls_name (field : Schema.field) v =
  let class_of oid = Option.map (fun (c : Schema.cls) -> c.Schema.name) (class_of db oid) in
  let subclass ~sub ~super = Catalog.is_subclass db.catalog ~sub ~super in
  if not (Otype.conforms ~subclass field.ftype v ~class_of) then
    type_error "class %s: field %s expects %s, got %a" cls_name field.fname
      (Otype.to_string field.ftype) Value.pp v

(* -- mutations ------------------------------------------------------------------------ *)

let touch txn oid = Hashtbl.replace txn.touched oid ()

let create txn (cls : Schema.cls) inits =
  let db = txn.tdb in
  (* Guard before the next_num bump and catalog_dirty flag: [create] mutates
     shared schema state ahead of its overlay writes. *)
  if txn.tro then raise Read_only_txn;
  if not (Catalog.has_cluster db.catalog cls) then raise (No_cluster cls.Schema.name);
  let fields = Catalog.all_fields db.catalog cls in
  let names = Schema.field_names fields in
  List.iter
    (fun (n, _) -> if not (List.mem n names) then type_error "class %s has no field %s" cls.Schema.name n)
    inits;
  let values =
    List.map
      (fun (f : Schema.field) ->
        let v =
          match List.assoc_opt f.fname inits with
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
        (f.fname, v))
      fields
  in
  let num = cls.Schema.next_num in
  cls.Schema.next_num <- num + 1;
  txn.catalog_dirty <- true;
  let oid : Oid.t = { cls = cls.Schema.id; num } in
  write txn (Keys.header oid)
    (encode_object { hcls = cls.Schema.id; hcurrent = 0; hversions = [ 0 ] } values);
  List.iter
    (fun (idx_id, fname) -> index_put txn ~idx_id ~value:(field_value values fname) ~oid)
    (applicable_indexes db cls);
  txn.created <- oid :: txn.created;
  touch txn oid;
  oid

let require_object db txn oid =
  match get_object db txn oid with
  | Some o -> o
  | None -> type_error "no such object %a" Oid.pp oid

let cls_of_header db (h : header) =
  match Catalog.find_by_id db.catalog h.hcls with
  | Some c -> c
  | None -> type_error "object of unknown class id %d" h.hcls

(* Move the index entries of [oid] from [old_fields]' values to
   [new_fields]' where they differ. *)
let reindex txn cls oid ~old_fields ~new_fields =
  List.iter
    (fun (idx_id, fname) ->
      let old_v = field_value old_fields fname in
      let new_v = field_value new_fields fname in
      if not (Value.equal old_v new_v) then begin
        index_del txn ~idx_id ~value:old_v ~oid;
        index_put txn ~idx_id ~value:new_v ~oid
      end)
    (applicable_indexes txn.tdb cls)

let update_fields txn oid updates =
  let db = txn.tdb in
  let h, old_fields = require_object db (Some txn) oid in
  let cls = cls_of_header db h in
  let schema_fields = Catalog.all_fields db.catalog cls in
  List.iter
    (fun (n, v) ->
      match Schema.find_field schema_fields n with
      | None -> type_error "class %s has no field %s" cls.Schema.name n
      | Some f -> check_conform db cls.Schema.name f v)
    updates;
  let new_fields =
    List.map
      (fun (n, old) ->
        match List.assoc_opt n updates with Some v -> (n, v) | None -> (n, old))
      old_fields
  in
  write txn (Keys.header oid) (encode_object h new_fields);
  reindex txn cls oid ~old_fields ~new_fields;
  touch txn oid

let delete_object txn oid =
  let db = txn.tdb in
  let h, cur_fields = require_object db (Some txn) oid in
  let cls = cls_of_header db h in
  List.iter
    (fun ver -> if ver <> h.hcurrent then remove txn (Keys.version oid ver))
    h.hversions;
  remove txn (Keys.header oid);
  List.iter
    (fun (idx_id, fname) -> index_del txn ~idx_id ~value:(field_value cur_fields fname) ~oid)
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
  write txn (Keys.version oid h.hcurrent) (Value.fields_encode cur);
  write txn (Keys.header oid)
    (encode_object { h with hcurrent = next; hversions = next :: h.hversions } cur);
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
      let new_fields =
        match find_version db (Some txn) { oid = vr.oid; ver = new_current } with
        | Some fs -> fs
        | None -> type_error "object %a: missing version %d" Oid.pp vr.oid new_current
      in
      reindex txn (cls_of_header db h) vr.oid ~old_fields:cur ~new_fields;
      remove txn (Keys.version vr.oid new_current);
      write txn (Keys.header vr.oid)
        (encode_object { h with hcurrent = new_current; hversions = remaining } new_fields);
      touch txn vr.oid
  | _ ->
      remove txn (Keys.version vr.oid vr.ver);
      write txn (Keys.header vr.oid) (encode_object { h with hversions = remaining } cur);
      touch txn vr.oid

(* -- apply (commit & recovery) ----------------------------------------------------------- *)

(* One transaction's write set, in key order: index entries go to the
   index tree, everything else to the KV. The stats hook rides this single
   apply path, so commit apply, recovery replay and standby apply all
   maintain the same cardinality counters; a replayed/replicated analyze
   snapshot installs itself the same way. *)
let apply_writes db ops =
  let ops = List.sort (fun (a, _) (b, _) -> String.compare a b) ops in
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
