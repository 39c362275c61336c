module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Bptree = Ode_index.Bptree
module Heap = Ode_storage.Heap
module Codec = Ode_util.Codec
open Types

(* -- fingerprints ----------------------------------------------------------

   The check matches the version records and index entries it finds
   against those the objects owe as two multisets, each held as its size
   and the sum, modulo 2^63, of its keys' fingerprints. A fingerprint
   mixes a key's parsed fields, which the canonical key encodings make
   one-to-one with its bytes. [mix] is splitmix64's finalizer on OCaml's
   63-bit ints, its multipliers cut to 62 bits (a bijection: an
   xorshift, then a multiply by an odd number); a string goes through
   FNV-1a first. Nothing here allocates. *)

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let add h x = mix (h + x)

let add_string h s =
  let f = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    f := (!f lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  add h !f

let version_fp (oid : Oid.t) ver = add (add (add 0x1e3779b97f4a7c15 oid.cls) oid.num) ver

let entry_fp idx_id valkey (oid : Oid.t) =
  add (add (add_string (add 0x2545f4914f6cdd1d idx_id) valkey) oid.cls) oid.num

(* A multiset of keys, as its size and the sum of its fingerprints. *)
type tally = { mutable size : int; mutable sum : int }

let tally () = { size = 0; sum = 0 }

let count t fp =
  t.size <- t.size + 1;
  t.sum <- t.sum + fp

let same a b = a.size = b.size && a.sum = b.sum

(* The non-current versions a header lists, each once: the version
   records the object owes. *)
let owed_versions (h : Store.header) =
  match h.hversions with
  | [] | [ _ ] -> List.filter (fun v -> v <> h.hcurrent) h.hversions
  | vs -> List.filter (fun v -> v <> h.hcurrent) (List.sort_uniq Int.compare vs)

(* Two passes, each the one walk of a tree's structural check: the
   directory, whose every record is fetched and decoded once, then the
   index tree. What they keep is a
   live bit per object number and four tallies: the version records and
   index entries the objects owe, and those the passes meet. Only when a
   pair differs does a naming walk read the range again to say which
   keys are wrong. Nothing goes through [Store]'s reads, so a check does
   not count as the workload's reads. *)
let run db =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let pp_ver ppf = function None -> () | Some ver -> Format.fprintf ppf " version %d" ver in

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
  (* Class ids run from 0 to the catalog's last. *)
  let classes =
    1 + List.fold_left (fun m (c : Schema.cls) -> max m c.id) (-1) (Catalog.all db.catalog)
  in
  let indexes_of cls = Catalog.class_indexes db.catalog cls in
  (* Who is alive: a bit per object number below the class's next one,
     set once its record decodes. A number at or past that (only a
     damaged key names one) goes on [strays] rather than growing the
     bits to whatever size the key asks for. *)
  let live = Array.init classes (fun id -> Bytes.make ((Store.next_num db id + 7) / 8) '\000') in
  let strays = ref [] in
  let in_bits (oid : Oid.t) = oid.cls < classes && oid.num < 8 * Bytes.length live.(oid.cls) in
  let byte (oid : Oid.t) = Char.code (Bytes.get live.(oid.cls) (oid.num lsr 3)) in
  let mark (oid : Oid.t) =
    if in_bits oid then
      Bytes.set live.(oid.cls) (oid.num lsr 3) (Char.chr (byte oid lor (1 lsl (oid.num land 7))))
    else strays := oid :: !strays
  in
  let is_live (oid : Oid.t) =
    if in_bits oid then byte oid land (1 lsl (oid.num land 7)) <> 0
    else List.exists (Oid.equal oid) !strays
  in
  let versions_owed = tally () and versions_found = tally () in
  let entries_owed = tally () and entries_found = tally () in

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
                mark oid;
                check_slots oid None slots;
                if not (List.mem h.hcurrent h.hversions) then
                  bad "object %a: current version %d not in version list" Oid.pp oid h.hcurrent;
                (match h.hversions with
                | [] | [ _ ] -> ()
                | vs ->
                    if List.length (List.sort_uniq Int.compare vs) <> List.length vs then
                      bad "object %a: duplicate version numbers" Oid.pp oid);
                List.iter (fun ver -> count versions_owed (version_fp oid ver)) (owed_versions h);
                List.iter
                  (fun (idx_id, _, i) ->
                    count entries_owed (entry_fp idx_id (Value.index_key slots.(i)) oid))
                  (indexes_of cls)
            | exception _ -> bad "object %a: record does not decode as header plus fields" Oid.pp oid))
  in
  (* 'V': only for live objects, each decoding as its class's slots. The
     'H' keys sort first, so every live bit is set. Whether the object's
     header lists the version, as not current, is the tallies' question. *)
  let check_version key payload =
    match Keys.parse_version key with
    | exception Codec.Corrupt msg -> bad "malformed version key %S (%s)" key msg
    | oid, _ when not (is_live oid) -> bad "version record for dead object %a" Oid.pp oid
    | oid, ver -> (
        count versions_found (version_fp oid ver);
        match Store.decode_version db oid payload with
        | slots -> check_slots oid (Some ver) slots
        | exception _ ->
            bad "object %a: version %d record does not decode as the class's fields" Oid.pp oid ver)
  in
  (* 'T': an activation decodes against its declaration and hangs on a
     live object whose class inherits the trigger, inactive or not. *)
  let check_activation key payload =
    match Triggers.decode_activation db key payload with
    | a -> (
        if not (is_live a.aoid) then
          bad "activation %d attached to dead object %a" a.tid Oid.pp a.aoid;
        match Catalog.find_by_id db.catalog a.aoid.Oid.cls with
        | Some cls when not (Catalog.is_subclass db.catalog ~sub:cls.name ~super:a.tcls) ->
            bad "activation %d: class %s does not inherit trigger %s.%s" a.tid cls.name a.tcls a.tname
        | _ -> ())
    | exception Codec.Corrupt msg -> bad "%s" msg
    | exception _ -> bad "activation record %S does not decode" key
  in

  (* A live object's class: its record decoded by that class's layout. *)
  let class_of (oid : Oid.t) = Option.get (Catalog.find_by_id db.catalog oid.cls) in

  (* -- naming walks: only when a pair of tallies differs ---------------

     They read a range again and probe for each key, reporting what the
     tallies only counted. A page that stopped a pass stops these walks
     quietly, as does a record that did not decode: both were reported. *)
  let quietly f = try f () with Codec.Corrupt _ -> () in
  let rec each cur f =
    match Bptree.cursor_next_key cur with
    | None -> ()
    | Some key ->
        quietly (fun () -> f key);
        each cur f
  in
  let decoded oid payload =
    match Store.decode_object db oid payload with
    | h, slots -> Some (h, slots)
    | exception _ -> None
  in
  (* Every live object, decoded again. *)
  let each_object f =
    let cur = Bptree.cursor_prefix db.kv_dir "H" in
    quietly (fun () ->
        each cur (fun key ->
            let oid = Keys.oid_of_header_key key in
            if is_live oid then
              match Kv.entry_payload db key (Bptree.cursor_value cur Kv.entry_at) with
              | Some p -> Option.iter (fun (h, slots) -> f oid h slots) (decoded oid p)
              | None -> ()))
  in
  (* One live object by a point probe. *)
  let object_at oid = Option.bind (Kv.get db (Keys.header oid)) (decoded oid) in
  let name_versions () =
    each_object (fun oid h _ ->
        List.iter
          (fun ver ->
            if not (Bptree.mem db.kv_dir (Keys.version oid ver)) then
              bad "object %a: version %d record missing" Oid.pp oid ver)
          (owed_versions h));
    quietly (fun () ->
        each (Bptree.cursor_prefix db.kv_dir "V") (fun key ->
            let oid, ver = Keys.parse_version key in
            if is_live oid then
              match object_at oid with
              | Some (h, _) when ver = h.hcurrent ->
                  bad "object %a: current version %d also has a version record" Oid.pp oid ver
              | Some (h, _) when not (List.mem ver h.hversions) ->
                  bad "object %a: orphan version record %d" Oid.pp oid ver
              | _ -> ()))
  in
  let name_entries () =
    quietly (fun () ->
        each (Bptree.cursor db.idx ()) (fun key ->
            let idx_id, valkey, oid = Keys.parse_index_tree_key key in
            if is_live oid then
              match object_at oid with
              | None -> ()
              | Some (_, slots) ->
                  List.iter
                    (fun (id, field, i) ->
                      if id = idx_id && Value.index_key slots.(i) <> valkey then
                        bad "index %d: stale entry for %a (field %s now %a)" idx_id Oid.pp oid field
                          Value.pp slots.(i))
                    (indexes_of (class_of oid))));
    each_object (fun oid _ slots ->
        List.iter
          (fun (idx_id, field, i) ->
            let key = Keys.index_tree_key (Keys.index_of_value ~idx_id ~value:slots.(i) ~oid) in
            if not (Bptree.mem db.idx key) then
              bad "index %d: missing entry for %a (%s = %a)" idx_id Oid.pp oid field Value.pp
                slots.(i))
          (indexes_of (class_of oid)))
  in

  (* One walk per tree, [Bptree.check]'s, which hands [visit] each leaf
     entry. A page that cannot be read, or a structural fault found
     mid-walk, ends the pass that met it; the next pass still runs. False
     when the pass stopped, so the cross-checks that need its complete
     results are skipped: they would report every entry past the page. *)
  let pass what tree visit =
    match Bptree.check ~visit tree with
    | Ok () -> true
    | Error { msg; stopped } ->
        bad "%s tree: %s" what msg;
        not stopped
    | exception Codec.Corrupt msg ->
        bad "%s: %s" what msg;
        false
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
  let visit_dir key b off len =
    let kind = if key = "" then '\000' else key.[0] in
    match Kv.entry_at b off len with
    | exception Codec.Corrupt msg -> bad "directory key %S: bad value (%s)" key msg
    | entry -> (
        match (kind, payload key entry) with
        | 'H', Some p -> check_object key p
        | 'V', Some p -> check_version key p
        | 'T', Some p -> check_activation key p
        | _ -> ())
  in
  let dir_whole = pass "directory" db.kv_dir visit_dir in
  (* No heap record lacks an entry (recovery's orphan sweep guarantees
     this after a crash), and the version records are those the headers
     owe. *)
  if dir_whole then begin
    let heap_records = Heap.record_count db.kv_heap in
    if heap_records <> !rid_entries then
      bad "heap has %d records but the directory has %d out-of-line entries" heap_records
        !rid_entries;
    if not (same versions_owed versions_found) then name_versions ()
  end
  else
    bad "not checked, as the directory pass stopped: the heap record count, version records, index \
         entries for dead objects";

  (* 2. The index tree: every entry is one a live object's current fields
     call for, and every such entry is there. An entry that names a live
     object through an index its class has goes into the tally; any other
     is named here. *)
  let indexes = Array.of_list (Catalog.indexes db.catalog) in
  let visit_idx key _ _ _ =
    match Keys.parse_index_tree_key key with
    | exception Codec.Corrupt msg -> bad "malformed index key %S (%s)" key msg
    | idx_id, _, _ when idx_id >= Array.length indexes -> bad "index entry for unknown index id %d" idx_id
    | idx_id, _, oid when not (is_live oid) ->
        if dir_whole then bad "index %d: entry for dead object %a" idx_id Oid.pp oid
    | idx_id, valkey, oid ->
        if List.exists (fun (id, _, _) -> id = idx_id) (indexes_of (class_of oid)) then
          count entries_found (entry_fp idx_id valkey oid)
        else begin
          (* The index does not apply to the object's class. *)
          let field = snd indexes.(idx_id) in
          match Catalog.layout_of_id db.catalog oid.cls with
          | Some l when Catalog.slot l field <> None ->
              bad "index %d: entry for %a, whose class the index does not cover" idx_id Oid.pp oid
          | _ -> bad "index %d: object %a lacks field %s" idx_id Oid.pp oid field
        end
  in
  if pass "index" db.idx visit_idx then begin
    if not (same entries_owed entries_found) then name_entries ()
  end
  else bad "not checked, as the index pass stopped: missing or stale index entries";

  match !problems with [] -> Ok () | ps -> Error (List.rev ps)
