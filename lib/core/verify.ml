module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Bptree = Ode_index.Bptree
open Types

let run db =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in

  (* 0. Directory <-> heap: each record lives in the home its size
     chooses ([Kv.in_leaf]: the leaf up to [Kv.inline_max] bytes, the heap
     above), every out-of-line entry resolves to a readable heap record of
     its own key, and no heap record lacks an entry (recovery's orphan
     sweep guarantees the latter after a crash). *)
  let rid_entries = ref 0 in
  Ode_index.Bptree.iter_range db.kv_dir (fun key value ->
      (match Kv.decode_entry value with
      | exception Ode_util.Codec.Corrupt msg -> bad "directory key %S: bad value (%s)" key msg
      | Kv.Inline payload ->
          if not (Kv.in_leaf key (String.length payload)) then
            bad "directory key %S holds a %d-byte payload in its leaf, which belongs in the heap" key
              (String.length payload)
      | Kv.At rid -> (
          incr rid_entries;
          match Ode_storage.Heap.get db.kv_heap rid with
          | Some raw -> (
              match Kv.decode_record key raw with
              | None -> bad "directory key %S points at a record owned by another key" key
              | Some payload ->
                  if Kv.in_leaf key (String.length payload) then
                    bad "directory key %S keeps a %d-byte payload in the heap, which belongs in its leaf"
                      key (String.length payload))
          | None -> bad "directory key %S points at a dead heap record" key
          | exception Ode_util.Codec.Corrupt msg ->
              bad "directory key %S: corrupt heap record (%s)" key msg));
      true);
  let heap_records = Ode_storage.Heap.record_count db.kv_heap in
  if heap_records <> !rid_entries then
    bad "heap has %d records but the directory has %d out-of-line entries" heap_records
      !rid_entries;

  (* 1. Object records: the 'H' record holds the header and the current
     version's fields; every other listed version has its own 'V'
     record. Records carry no names, so each is decoded against the layout
     of the class its oid names, and every slot must conform to its
     field's type. *)
  let check_slots what (oid : Oid.t) slots =
    match Catalog.layout_of_id db.catalog oid.cls with
    | None -> ()
    | Some l ->
        Array.iteri
          (fun i v ->
            let f = l.Catalog.fields.(i) in
            if not (Store.conforms db f v) then
              bad "%s: field %s holds %a, which does not conform to %s" what f.Schema.fname Value.pp v
                (Ode_model.Otype.to_string f.Schema.ftype))
          slots
  in
  let headers : (Oid.t, Store.header) Hashtbl.t = Hashtbl.create 256 in
  Kv.iter_prefix db "H" (fun key payload ->
      (match Keys.oid_of_header_key key with
      | exception Ode_util.Codec.Corrupt msg -> bad "malformed header key %S (%s)" key msg
      | oid when Catalog.find_by_id db.catalog oid.Oid.cls = None ->
          bad "object %a: unknown class id %d" Oid.pp oid oid.Oid.cls
      | oid -> (
          match Store.decode_object db oid payload with
          | h, slots ->
              Hashtbl.replace headers oid h;
              check_slots (Format.asprintf "object %a" Oid.pp oid) oid slots;
              if not (List.mem h.Store.hcurrent h.Store.hversions) then
                bad "object %a: current version %d not in version list" Oid.pp oid h.Store.hcurrent;
              if List.length (List.sort_uniq Int.compare h.Store.hversions)
                 <> List.length h.Store.hversions
              then bad "object %a: duplicate version numbers" Oid.pp oid;
              List.iter
                (fun ver ->
                  if ver <> h.Store.hcurrent && not (Kv.mem db (Keys.version oid ver)) then
                    bad "object %a: version %d record missing" Oid.pp oid ver)
                h.Store.hversions
          | exception _ -> bad "object %a: record does not decode as header plus fields" Oid.pp oid));
      true);

  (* 2. Version records: only for live objects' non-current versions, each
     decoding as its class's slots. *)
  Kv.iter_prefix db "V" (fun key payload ->
      (match Keys.parse_version key with
      | exception Ode_util.Codec.Corrupt msg -> bad "malformed version key %S (%s)" key msg
      | oid, ver -> (
          match Hashtbl.find_opt headers oid with
          | None -> bad "version record for dead object %a" Oid.pp oid
          | Some h -> (
              if ver = h.Store.hcurrent then
                bad "object %a: current version %d also has a version record" Oid.pp oid ver
              else if not (List.mem ver h.Store.hversions) then
                bad "object %a: orphan version record %d" Oid.pp oid ver;
              match Store.decode_version db oid payload with
              | slots -> check_slots (Format.asprintf "object %a version %d" Oid.pp oid ver) oid slots
              | exception _ ->
                  bad "object %a: version %d record does not decode as the class's fields" Oid.pp
                    oid ver)));
      true);

  (* 3. Index entries point at live, matching objects... *)
  let index_entries = Hashtbl.create 256 in
  Bptree.iter_range db.idx (fun key _ ->
      (match Keys.parse_index_tree_key key with
      | exception Ode_util.Codec.Corrupt msg -> bad "malformed index key %S (%s)" key msg
      | idx_id, valkey, oid -> (
          Hashtbl.replace index_entries (idx_id, valkey, oid) ();
          match List.nth_opt (Catalog.indexes db.catalog) idx_id with
          | None -> bad "index entry for unknown index id %d" idx_id
          | Some (_, field) -> (
              match Hashtbl.find_opt headers oid with
              | None -> bad "index %d: entry for dead object %a" idx_id Oid.pp oid
              | Some _ -> (
                  match Store.get_field db None oid field with
                  | Some v when Value.index_key v = valkey -> ()
                  | Some v ->
                      bad "index %d: stale entry for %a (field %s now %a)" idx_id Oid.pp oid field
                        Value.pp v
                  | None -> bad "index %d: object %a lacks field %s" idx_id Oid.pp oid field))));
      true);

  (* ... and every object is covered by every applicable index. *)
  Hashtbl.iter
    (fun oid _ ->
      match Catalog.find_by_id db.catalog oid.Oid.cls with
      | None -> ()
      | Some cls ->
          List.iter
            (fun (idx_id, field) ->
              match Store.get_field db None oid field with
              | Some v ->
                  if not (Hashtbl.mem index_entries (idx_id, Value.index_key v, oid)) then
                    bad "index %d: missing entry for %a (%s = %a)" idx_id Oid.pp oid field
                      Value.pp v
              | None -> ())
            (Store.applicable_indexes db cls))
    headers;

  (* 4. Trigger activations. *)
  Kv.iter_prefix db Keys.trigger_prefix (fun key payload ->
      (match Triggers.decode_activation db key payload with
      | a -> (
          if a.active && not (Hashtbl.mem headers a.aoid) then
            bad "activation %d attached to dead object %a" a.tid Oid.pp a.aoid;
          match Catalog.find_by_id db.catalog a.aoid.Oid.cls with
          | Some cls when not (Catalog.is_subclass db.catalog ~sub:cls.name ~super:a.tcls) ->
              bad "activation %d: class %s does not inherit trigger %s.%s" a.tid cls.name a.tcls
                a.tname
          | _ -> ())
      | exception Ode_util.Codec.Corrupt msg -> bad "%s" msg
      | exception _ -> bad "activation record %S does not decode" key);
      true);

  (* 5. Structural checks of the trees. *)
  (match Bptree.check db.kv_dir with Ok () -> () | Error e -> bad "directory tree: %s" e);
  (match Bptree.check db.idx with Ok () -> () | Error e -> bad "index tree: %s" e);

  match !problems with [] -> Ok () | ps -> Error (List.rev ps)

let run_exn db =
  match run db with
  | Ok () -> ()
  | Error ps -> failwith ("integrity check failed:\n  " ^ String.concat "\n  " ps)
