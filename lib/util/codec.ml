exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* -- encoding ---------------------------------------------------------- *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let put_u16 b n =
  put_u8 b n;
  put_u8 b (n lsr 8)

let put_u32 b n =
  put_u16 b n;
  put_u16 b (n lsr 16)

let put_i64 b n = Buffer.add_int64_le b n
let put_int b n = put_i64 b (Int64.of_int n)
let put_float b f = put_i64 b (Int64.bits_of_float f)
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_raw b s = Buffer.add_string b s

(* Unsigned LEB128: seven bits per byte, low group first, the high bit set
   on every byte but the last; [z] is read as an unsigned 63-bit number. *)
let rec put_groups b z =
  if z land lnot 0x7f = 0 then put_u8 b z
  else begin
    put_u8 b (z land 0x7f lor 0x80);
    put_groups b (z lsr 7)
  end

let put_varint b n = if n < 0 then invalid_arg "Codec.put_varint: negative" else put_groups b n
let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

(* Zigzag: 0, -1, 1, -2, ... become 0, 1, 2, 3, ..., so every int fits in
   nine groups. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let max_varint_size = 9
let put_svarint b n = put_groups b (zigzag n)

let rec groups_size z = if z land lnot 0x7f = 0 then 1 else 1 + groups_size (z lsr 7)
let svarint_size n = groups_size (zigzag n)

(* [put_groups] into [b] at [pos], returning the offset after. *)
let rec set_groups b pos z =
  if z land lnot 0x7f = 0 then begin
    Bytes.set_uint8 b pos z;
    pos + 1
  end
  else begin
    Bytes.set_uint8 b pos (z land 0x7f lor 0x80);
    set_groups b (pos + 1) (z lsr 7)
  end

let set_varint b pos n =
  if n < 0 then invalid_arg "Codec.set_varint: negative" else set_groups b pos n

let set_svarint b pos n = set_groups b pos (zigzag n)

(* -- decoding ---------------------------------------------------------- *)

type cursor = { src : string; mutable p : int; stop : int }

let cursor ?(pos = 0) ?stop src =
  let stop = match stop with Some s -> s | None -> String.length src in
  if stop < 0 || stop > String.length src then invalid_arg "Codec.cursor: stop out of range";
  { src; p = pos; stop }

let pos c = c.p
let remaining c = c.stop - c.p
let at_end c = remaining c <= 0

let need c n =
  if remaining c < n then
    corrupt "codec: need %d bytes at %d, have %d" n c.p (remaining c)

let get_u8 c =
  need c 1;
  let v = Char.code c.src.[c.p] in
  c.p <- c.p + 1;
  v

let get_u16 c =
  let lo = get_u8 c in
  let hi = get_u8 c in
  lo lor (hi lsl 8)

let get_u32 c =
  let lo = get_u16 c in
  let hi = get_u16 c in
  lo lor (hi lsl 16)

let get_i64 c =
  need c 8;
  let v = String.get_int64_le c.src c.p in
  c.p <- c.p + 8;
  v

let get_int c = Int64.to_int (get_i64 c)
let get_float c = Int64.float_of_bits (get_i64 c)

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "codec: invalid bool byte %d" n

let skip c n =
  need c n;
  c.p <- c.p + n

let get_raw c n =
  need c n;
  let s = String.sub c.src c.p n in
  c.p <- c.p + n;
  s

let get_string c =
  let n = get_u32 c in
  get_raw c n

(* The inverse of [put_groups], which writes the shortest form: a zero
   final group after the first byte (overlong) or a ninth group above
   [top] is corrupt, like a truncated one. *)
let get_groups c ~what ~top =
  let start = c.p in
  let acc = ref 0 and shift = ref 0 and last = ref (-1) in
  while !last < 0 do
    let byte = get_u8 c in
    if !shift = 56 && byte > top then corrupt "codec: %s at %d overflows" what start;
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    if byte < 0x80 then last := byte else shift := !shift + 7
  done;
  if !last = 0 && !shift > 0 then corrupt "codec: overlong %s at %d" what start;
  !acc

(* A varint past [max_int] has a ninth group above 0x3f; a zigzag one may
   use all seven bits. *)
let get_varint c = get_groups c ~what:"varint" ~top:0x3f

let get_svarint c =
  let z = get_groups c ~what:"svarint" ~top:0x7f in
  (z lsr 1) lxor - (z land 1)

(* -- checksums --------------------------------------------------------- *)

let fnv64_init = 0xcbf29ce484222325L

(* FNV-1a over [len] bytes from [pos], continuing from the hash [h]. A loop
   over a local [ref], which the compiler keeps unboxed, so hashing
   allocates nothing per byte. *)
let[@inline] fnv64_feed h s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Codec.fnv64_feed";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h

let fnv64_sub s ~pos ~len = fnv64_feed fnv64_init s ~pos ~len

(* [fnv64_feed] is inlined here, so the hash is compared where it is
   computed: an [int64] a call returns is boxed, and this compare is made
   once per WAL frame read. *)
let fnv64_sub_is s ~pos ~len ~at = String.get_int64_le s at = fnv64_feed fnv64_init s ~pos ~len

let fnv64 s = fnv64_sub s ~pos:0 ~len:(String.length s)
