module Codec = Ode_util.Codec
module Key = Ode_util.Key

type t = { cls : int; num : int }
type vref = { oid : t; ver : int }

let compare a b =
  match Int.compare a.cls b.cls with 0 -> Int.compare a.num b.num | c -> c

let equal a b = compare a b = 0
let hash a = Hashtbl.hash (a.cls, a.num)
let pp ppf a = Format.fprintf ppf "#%d:%d" a.cls a.num

let compare_vref a b =
  match compare a.oid b.oid with 0 -> Int.compare a.ver b.ver | c -> c

let pp_vref ppf a = Format.fprintf ppf "%a@v%d" pp a.oid a.ver

let add_to_buffer b a =
  Buffer.add_char b '#';
  Buffer.add_string b (Int.to_string a.cls);
  Buffer.add_char b ':';
  Buffer.add_string b (Int.to_string a.num)

let add_vref_to_buffer b a =
  add_to_buffer b a.oid;
  Buffer.add_string b "@v";
  Buffer.add_string b (Int.to_string a.ver)

let encode b a =
  Codec.put_u32 b a.cls;
  Codec.put_int b a.num

let decode c =
  let cls = Codec.get_u32 c in
  let num = Codec.get_int c in
  { cls; num }

let encode_vref b v =
  encode b v.oid;
  Codec.put_u32 b v.ver

let decode_vref c =
  let oid = decode c in
  let ver = Codec.get_u32 c in
  { oid; ver }

let key_size a = Key.nat_size a.cls + Key.nat_size a.num
let set_key b pos a = Key.set_nat b (Key.set_nat b pos a.cls) a.num

let key a = Key.build key_size set_key a

let key_class_prefix cls = Key.of_nat cls

let of_key_at s pos =
  let cls, pos = Key.nat_at s pos in
  let num, pos = Key.nat_at s pos in
  ({ cls; num }, pos)
