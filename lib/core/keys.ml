(* Logical key namespace of the persistent store.

   Every durable datum lives under a tagged byte-string key; the WAL logs
   Put/Delete on these keys and recovery replays them, so adding state to
   the system never changes the recovery protocol. Tags:

     'H' ++ oid-key                the object: header (class, current
                                   version, version list), then the
                                   current version's fields
     'V' ++ oid-key ++ u32 ver     the fields of one non-current version
                                   (never the current one)
     'R' ++ name                   named persistent root
     'T' ++ u32 tid                trigger activation record
     'C'                           the schema catalog
     'M'                           engine metadata (counters, logical clock)
     'S'                           planner statistics (cardinalities, histograms)
     'I' ++ u32 idx ++ valkey ++ oid-key   secondary index entry (routed to
                                           the index tree, not the KV)       *)

module Oid = Ode_model.Oid
module Key = Ode_util.Key
module Codec = Ode_util.Codec

let header oid = "H" ^ Oid.key oid
let header_prefix_class cls_id = "H" ^ Oid.key_class_prefix cls_id

let oid_of_header_key k =
  (* strip the tag byte *)
  Oid.of_key (String.sub k 1 (String.length k - 1))

let version oid ver =
  let b = Buffer.create 24 in
  Codec.put_raw b "V";
  Codec.put_raw b (Oid.key oid);
  Codec.put_raw b (Key.of_int ver);
  Buffer.contents b

let version_prefix oid = "V" ^ Oid.key oid
let root name = "R" ^ name

let trigger tid =
  let b = Buffer.create 12 in
  Codec.put_raw b "T";
  Codec.put_raw b (Key.of_int tid);
  Buffer.contents b

let trigger_prefix = "T"
let catalog = "C"
let meta = "M"
let stats = "S"

let index_entry ~idx_id ~valkey ~oid =
  let b = Buffer.create 32 in
  Codec.put_raw b "I";
  Codec.put_raw b (Key.of_int idx_id);
  Codec.put_raw b valkey;
  Codec.put_raw b (Oid.key oid);
  Buffer.contents b

let index_prefix ~idx_id = "I" ^ Key.of_int idx_id
let index_value_prefix ~idx_id ~valkey = "I" ^ Key.of_int idx_id ^ valkey

let is_index_key k = String.length k > 0 && k.[0] = 'I'

(* The trailing 16 bytes of an index entry are the oid key. *)
let oid_of_index_key k =
  let n = String.length k in
  if n < 16 then invalid_arg "keys: short index key";
  Oid.of_key (String.sub k (n - 16) 16)

(* Strip the routing tag: index entries are stored in the index tree without
   the leading 'I'. *)
let index_tree_key k = String.sub k 1 (String.length k - 1)
