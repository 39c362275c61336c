module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Bptree = Ode_index.Bptree
module Heap = Ode_storage.Heap
module Codec = Ode_util.Codec
open Types

(* The entry an index owes an object, from the object's current fields;
   [seen] once the index pass meets it. *)
type expected = { field : string; value : Value.t; mutable seen : bool }

(* Two passes, each one cursor: the directory, whose every record is
   fetched and decoded once, then the index tree, matched against the
   entries the directory pass expects. Nothing goes through [Store]'s
   reads, so a check does not count as the workload's reads. *)
let run db =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let pp_ver ppf = function None -> () | Some ver -> Format.fprintf ppf " version %d" ver in
  (* A page that cannot be read ends the pass that met it, as a problem
     naming the file and page; the next pass still runs. False when the
     pass stopped, so the cross-checks that need its complete results are
     skipped: they would report every entry past the page. *)
  let pass what f =
    match f () with
    | () -> true
    | exception Codec.Corrupt msg ->
        bad "%s: %s" what msg;
        false
  in

  (* Every slot conforms to its field's type. Records carry no names and
     no value tags, so each slot was decoded by its field's type in the
     layout of the class its oid names; what decoding cannot vouch for is
     the class a ref names. *)
  let check_slots (oid : Oid.t) ver slots =
    match Catalog.layout_of_id db.catalog oid.cls with
    | None -> ()
    | Some l ->
        Array.iteri
          (fun i v ->
            let f = l.Catalog.fields.(i) in
            if not (Store.conforms db f v) then
              bad "object %a%a: field %s holds %a, which does not conform to %s" Oid.pp oid pp_ver ver
                f.Schema.fname Value.pp v
                (Ode_model.Otype.to_string f.Schema.ftype))
          slots
  in
  (* Per class id, the applicable indexes as (index id, field, slot). *)
  let class_indexes = Hashtbl.create 8 in
  let indexes_of (cls : Schema.cls) =
    match Hashtbl.find_opt class_indexes cls.id with
    | Some l -> l
    | None ->
        let l =
          match Catalog.layout_of_id db.catalog cls.id with
          | None -> []
          | Some layout ->
              List.filter_map
                (fun (idx_id, field) ->
                  Option.map (fun i -> (idx_id, field, i)) (Catalog.slot layout field))
                (Store.applicable_indexes db cls)
        in
        Hashtbl.add class_indexes cls.id l;
        l
  in
  let headers : (Oid.t, Store.header) Hashtbl.t = Hashtbl.create 256 in
  let expected : (int * Oid.t, expected) Hashtbl.t = Hashtbl.create 256 in
  let version_keys : (string, unit) Hashtbl.t = Hashtbl.create 64 in

  (* 'H': the header and the current version's fields. *)
  let check_object key payload =
    match Keys.oid_of_header_key key with
    | exception Codec.Corrupt msg -> bad "malformed header key %S (%s)" key msg
    | oid -> (
        match Catalog.find_by_id db.catalog oid.cls with
        | None -> bad "object %a: unknown class id %d" Oid.pp oid oid.cls
        | Some cls -> (
            match Store.decode_object db oid payload with
            | h, slots ->
                Hashtbl.replace headers oid h;
                check_slots oid None slots;
                if not (List.mem h.hcurrent h.hversions) then
                  bad "object %a: current version %d not in version list" Oid.pp oid h.hcurrent;
                (match h.hversions with
                | [] | [ _ ] -> ()
                | vs ->
                    if List.length (List.sort_uniq Int.compare vs) <> List.length vs then
                      bad "object %a: duplicate version numbers" Oid.pp oid);
                List.iter
                  (fun (idx_id, field, i) ->
                    Hashtbl.replace expected (idx_id, oid) { field; value = slots.(i); seen = false })
                  (indexes_of cls)
            | exception _ -> bad "object %a: record does not decode as header plus fields" Oid.pp oid))
  in
  (* 'V': only for live objects' non-current versions, each decoding as
     its class's slots. The 'H' keys sort first, so every header is known. *)
  let check_version key payload =
    match Keys.parse_version key with
    | exception Codec.Corrupt msg -> bad "malformed version key %S (%s)" key msg
    | oid, ver -> (
        match Hashtbl.find_opt headers oid with
        | None -> bad "version record for dead object %a" Oid.pp oid
        | Some h -> (
            if ver = h.hcurrent then
              bad "object %a: current version %d also has a version record" Oid.pp oid ver
            else if not (List.mem ver h.hversions) then
              bad "object %a: orphan version record %d" Oid.pp oid ver;
            match Store.decode_version db oid payload with
            | slots -> check_slots oid (Some ver) slots
            | exception _ ->
                bad "object %a: version %d record does not decode as the class's fields" Oid.pp oid ver))
  in
  (* 'T': an activation decodes against its declaration and hangs on a
     live object whose class inherits the trigger, inactive or not. *)
  let check_activation key payload =
    match Triggers.decode_activation db key payload with
    | a -> (
        if not (Hashtbl.mem headers a.aoid) then
          bad "activation %d attached to dead object %a" a.tid Oid.pp a.aoid;
        match Catalog.find_by_id db.catalog a.aoid.Oid.cls with
        | Some cls when not (Catalog.is_subclass db.catalog ~sub:cls.name ~super:a.tcls) ->
            bad "activation %d: class %s does not inherit trigger %s.%s" a.tid cls.name a.tcls a.tname
        | _ -> ())
    | exception Codec.Corrupt msg -> bad "%s" msg
    | exception _ -> bad "activation record %S does not decode" key
  in

  (* 1. The directory. Each record lives in the home its size chooses
     ([Kv.in_leaf]: the leaf up to [Kv.inline_max] bytes, the heap above),
     and every out-of-line entry resolves to a readable heap record of its
     own key. The payload then goes to its key kind's check. *)
  let rid_entries = ref 0 in
  let payload key = function
    | Kv.Inline payload ->
        if not (Kv.in_leaf key (String.length payload)) then
          bad "directory key %S holds a %d-byte payload in its leaf, which belongs in the heap" key
            (String.length payload);
        Some payload
    | Kv.At rid -> (
        incr rid_entries;
        match Heap.get_with db.kv_heap rid (Kv.payload_at key) with
        | Some None ->
            bad "directory key %S points at a record owned by another key" key;
            None
        | Some (Some payload as found) ->
            if Kv.in_leaf key (String.length payload) then
              bad "directory key %S keeps a %d-byte payload in the heap, which belongs in its leaf" key
                (String.length payload);
            found
        | None ->
            bad "directory key %S points at a dead heap record" key;
            None
        | exception Codec.Corrupt msg ->
            bad "directory key %S: corrupt heap record (%s)" key msg;
            None)
  in
  let rec walk_dir dir =
    match Bptree.cursor_next_key dir with
    | None -> ()
    | Some key ->
        let kind = if key = "" then '\000' else key.[0] in
        if kind = 'V' then Hashtbl.replace version_keys key ();
        (match Bptree.cursor_value dir Kv.entry_at with
        | exception Codec.Corrupt msg -> bad "directory key %S: bad value (%s)" key msg
        | entry -> (
            match (kind, payload key entry) with
            | 'H', Some p -> check_object key p
            | 'V', Some p -> check_version key p
            | 'T', Some p -> check_activation key p
            | _ -> ()));
        walk_dir dir
  in
  let dir_whole = pass "directory" (fun () -> walk_dir (Bptree.cursor db.kv_dir ())) in
  (* No heap record lacks an entry (recovery's orphan sweep guarantees
     this after a crash), and every listed version but the current one
     has its record. *)
  if dir_whole then begin
    let heap_records = Heap.record_count db.kv_heap in
    if heap_records <> !rid_entries then
      bad "heap has %d records but the directory has %d out-of-line entries" heap_records
        !rid_entries;
    Hashtbl.iter
      (fun oid (h : Store.header) ->
        List.iter
          (fun ver ->
            if ver <> h.hcurrent && not (Hashtbl.mem version_keys (Keys.version oid ver)) then
              bad "object %a: version %d record missing" Oid.pp oid ver)
          h.hversions)
      headers
  end
  else
    bad "not checked, as the directory pass stopped: the heap record count, version records, index \
         entries for dead objects";

  (* 2. The index tree: every entry is one a live object's current fields
     call for, and every such entry is there. *)
  let indexes = Array.of_list (Catalog.indexes db.catalog) in
  let rec walk_idx idx =
    match Bptree.cursor_next_key idx with
    | None -> ()
    | Some key ->
        (match Keys.parse_index_tree_key key with
        | exception Codec.Corrupt msg -> bad "malformed index key %S (%s)" key msg
        | idx_id, _, _ when idx_id >= Array.length indexes ->
            bad "index entry for unknown index id %d" idx_id
        | idx_id, _, oid when not (Hashtbl.mem headers oid) ->
            if dir_whole then bad "index %d: entry for dead object %a" idx_id Oid.pp oid
        | idx_id, valkey, oid -> (
            match Hashtbl.find_opt expected (idx_id, oid) with
            | Some e when Value.index_key e.value = valkey -> e.seen <- true
            | Some e ->
                bad "index %d: stale entry for %a (field %s now %a)" idx_id Oid.pp oid e.field Value.pp
                  e.value
            | None -> (
                (* The index does not apply to the object's class. *)
                let field = snd indexes.(idx_id) in
                match Catalog.layout_of_id db.catalog oid.cls with
                | Some l when Catalog.slot l field <> None ->
                    bad "index %d: entry for %a, whose class the index does not cover" idx_id Oid.pp oid
                | _ -> bad "index %d: object %a lacks field %s" idx_id Oid.pp oid field)));
        walk_idx idx
  in
  let idx_whole = pass "index" (fun () -> walk_idx (Bptree.cursor db.idx ())) in
  if idx_whole then
    Hashtbl.iter
      (fun (idx_id, oid) e ->
        if not e.seen then
          bad "index %d: missing entry for %a (%s = %a)" idx_id Oid.pp oid e.field Value.pp e.value)
      expected
  else bad "not checked, as the index pass stopped: missing index entries";

  (* 3. Structural checks of the trees. *)
  let check what tree =
    ignore
      (pass what (fun () ->
           match Bptree.check tree with Ok () -> () | Error e -> bad "%s: %s" what e))
  in
  check "directory tree" db.kv_dir;
  check "index tree" db.idx;

  match !problems with [] -> Ok () | ps -> Error (List.rev ps)
