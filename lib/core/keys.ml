(* Logical key namespace of the persistent store.

   Every durable datum lives under a tagged byte-string key; a commit's
   WAL frame logs puts and deletes of these keys and recovery replays
   them, so adding state to the system never changes the recovery
   protocol. Tags:

     'H' ++ oid-key                the object: header (class, current
                                   version, version list), then the
                                   current version's fields
     'V' ++ oid-key ++ nat ver     the fields of one non-current version
                                   (never the current one)
     'R' ++ name                   named persistent root
     'T' ++ oid-key ++ nat tid     a trigger activation on the object:
                                   its records sit together, so one
                                   prefix lookup finds them all
     'C'                           the schema catalog (DDL writes it)
     'E'                           engine metadata (next tid, each class's
                                   next object number, logical clock)
     'S'                           planner statistics (cardinalities, histograms)
     'I' ++ nat idx ++ valkey ++ oid-key   secondary index entry (routed to
                                           the index tree, not the KV)

   A nat is [Key.of_nat]: a width byte, then the significant bytes, so
   an oid-key ([Oid.key], nat cls ++ nat num) is 2 to 18 bytes, and at
   most 5 for a class id below 256 and an object number below 65,536.
   Every field is self-delimiting, so each key kind has one forward
   parser below, and this module, [Key] and [Oid] are the only code that
   knows the layout. A valkey is a [Value.index_key]: a type byte, then
   nothing (null), a bool byte, a [Key.of_number] (at most 17 bytes,
   terminated), a [Key.of_string] or an oid-key. *)

module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Key = Ode_util.Key
module Codec = Ode_util.Codec

let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

let expect_tag what tag k =
  if String.length k = 0 || k.[0] <> tag then corrupt "keys: not a %s key: %S" what k

let expect_end what k pos =
  if pos <> String.length k then corrupt "keys: %d trailing bytes in %s key %S" (String.length k - pos) what k

let header oid =
  let b = Bytes.create (1 + Oid.key_size oid) in
  Bytes.set b 0 'H';
  ignore (Oid.set_key b 1 oid);
  Bytes.unsafe_to_string b

let header_prefix_class cls_id = "H" ^ Oid.key_class_prefix cls_id
let is_header_key k = String.length k > 0 && k.[0] = 'H'

let oid_of_header_key k =
  expect_tag "header" 'H' k;
  let oid, pos = Oid.of_key_at k 1 in
  expect_end "header" k pos;
  oid

let version oid ver = String.concat "" [ "V"; Oid.key oid; Key.of_nat ver ]
let version_prefix oid = "V" ^ Oid.key oid

let parse_version k =
  expect_tag "version" 'V' k;
  let oid, pos = Oid.of_key_at k 1 in
  let ver, pos = Key.nat_at k pos in
  expect_end "version" k pos;
  (oid, ver)

let root name = "R" ^ name

let root_name k =
  expect_tag "root" 'R' k;
  String.sub k 1 (String.length k - 1)

let trigger oid tid = String.concat "" [ "T"; Oid.key oid; Key.of_nat tid ]
let trigger_prefix = "T"
let triggers_of oid = "T" ^ Oid.key oid
let is_trigger_key k = String.length k > 0 && k.[0] = 'T'

let parse_trigger k =
  expect_tag "trigger" 'T' k;
  let oid, pos = Oid.of_key_at k 1 in
  let tid, pos = Key.nat_at k pos in
  expect_end "trigger" k pos;
  (oid, tid)

let catalog = "C"

(* Every commit that creates an object rewrites the meta record, so its
   key sorts before the 'H' keys: a leaf that ends with the newest
   objects then has nothing after them, and the next one lands past its
   last entry, the append a leaf split fills. *)
let meta = "E"
let stats = "S"

let index_entry ~idx_id ~valkey ~oid = String.concat "" [ "I"; Key.of_nat idx_id; valkey; Oid.key oid ]

(* [index_entry ~idx_id ~valkey:(Value.index_key value) ~oid], built
   once at its final size: the write path's index key. *)
let index_of_value ~idx_id ~value ~oid =
  let b = Bytes.create (1 + Key.nat_size idx_id + Value.index_key_size value + Oid.key_size oid) in
  Bytes.set b 0 'I';
  ignore (Oid.set_key b (Value.set_index_key b (Key.set_nat b 1 idx_id) value) oid);
  Bytes.unsafe_to_string b

let index_prefix ~idx_id = "I" ^ Key.of_nat idx_id
let index_value_prefix ~idx_id ~valkey = "I" ^ Key.of_nat idx_id ^ valkey
let is_index_key k = String.length k > 0 && k.[0] = 'I'

(* Strip the routing tag: index entries are stored in the index tree without
   the leading 'I'. *)
let index_tree_key k = String.sub k 1 (String.length k - 1)

(* The position just past the valkey that starts at [pos]. *)
let valkey_end k pos =
  if pos >= String.length k then corrupt "keys: index key %S lacks a value" k;
  match k.[pos] with
  | '\000' -> pos + 1
  | '\001' -> pos + 2
  | '\002' -> Key.number_end k (pos + 1)
  | '\003' -> Key.string_end k (pos + 1)
  | '\004' -> snd (Oid.of_key_at k (pos + 1))
  | c -> corrupt "keys: bad value type %d in index key %S" (Char.code c) k

(* An index tree key (no 'I' tag) as its index id, valkey and oid. *)
let parse_index_tree_key k =
  let idx_id, vpos = Key.nat_at k 0 in
  let opos = valkey_end k vpos in
  let oid, pos = Oid.of_key_at k opos in
  expect_end "index" k pos;
  (idx_id, String.sub k vpos (opos - vpos), oid)

let oid_of_index_key k =
  let _, vpos = Key.nat_at k 0 in
  let oid, pos = Oid.of_key_at k (valkey_end k vpos) in
  expect_end "index" k pos;
  oid
