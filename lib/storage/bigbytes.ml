(* Byte arrays outside the OCaml heap: a char Bigarray, named nowhere else.
   Field access compiles to the compiler's bigstring primitives; copies and
   file I/O go through the noalloc stubs of bigbytes_stubs.c. *)

open Bigarray

type t = (char, int8_unsigned_elt, c_layout) Array1.t

(* Native byte order: little-endian, as the store's pages are. *)
let () = if Sys.big_endian then failwith "Bigbytes: pages are little-endian and this host is big-endian"

external get_uint16_le : t -> int -> int = "%caml_bigstring_get16"
external set_uint16_le : t -> int -> int -> unit = "%caml_bigstring_set16"
external get_int32_le : t -> int -> int32 = "%caml_bigstring_get32"
external set_int32_le : t -> int -> int32 -> unit = "%caml_bigstring_set32"
external get_int64_le : t -> int -> int64 = "%caml_bigstring_get64"
external set_int64_le : t -> int -> int64 -> unit = "%caml_bigstring_set64"
external unsafe_get_int64_le : t -> int -> int64 = "%caml_bigstring_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

external c_blit : t -> int -> t -> int -> int -> unit = "ode_bigbytes_blit" [@@noalloc]

external c_blit_from_string : string -> int -> t -> int -> int -> unit
  = "ode_bigbytes_blit_from_string"
[@@noalloc]

external c_blit_to_bytes : t -> int -> bytes -> int -> int -> unit = "ode_bigbytes_blit_to_bytes"
[@@noalloc]

external c_fill : t -> int -> int -> char -> unit = "ode_bigbytes_fill" [@@noalloc]

external c_pread : Unix.file_descr -> t -> int -> int -> int -> int = "ode_bigbytes_pread"
[@@noalloc]

external c_pwrite : Unix.file_descr -> t -> int -> int -> int -> int = "ode_bigbytes_pwrite"
[@@noalloc]

external c_release : t -> unit = "ode_bigbytes_release" [@@noalloc]
external error_of_code : int -> Unix.error = "ode_bigbytes_error_of_code"
external get : t -> int -> char = "%caml_ba_ref_1"
external set : t -> int -> char -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> char = "%caml_ba_unsafe_ref_1"

let length (b : t) = Array1.dim b

let check b off len what =
  if off < 0 || len < 0 || off > length b - len then invalid_arg what

let fill b off len c =
  check b off len "Bigbytes.fill";
  c_fill b off len c

let create n =
  let b = Array1.create char c_layout n in
  c_fill b 0 n '\000';
  b

let empty = create 0

let blit src soff dst doff len =
  check src soff len "Bigbytes.blit";
  check dst doff len "Bigbytes.blit";
  c_blit src soff dst doff len

let blit_from_string s soff dst doff len =
  if soff < 0 || len < 0 || soff > String.length s - len then invalid_arg "Bigbytes.blit_from_string";
  check dst doff len "Bigbytes.blit_from_string";
  c_blit_from_string s soff dst doff len

let sub b off len =
  check b off len "Bigbytes.sub";
  let c = Array1.create char c_layout len in
  c_blit b off c 0 len;
  c

let sub_string b off len =
  check b off len "Bigbytes.sub_string";
  let s = Bytes.create len in
  c_blit_to_bytes b off s 0 len;
  Bytes.unsafe_to_string s

let blit_to_bytes src soff dst doff len =
  check src soff len "Bigbytes.blit_to_bytes";
  if doff < 0 || len < 0 || doff > Bytes.length dst - len then invalid_arg "Bigbytes.blit_to_bytes";
  c_blit_to_bytes src soff dst doff len

let of_string s =
  let b = Array1.create char c_layout (String.length s) in
  c_blit_from_string s 0 b 0 (String.length s);
  b

let to_string b = sub_string b 0 (length b)

let fnv64_feed h b ~pos ~len =
  check b pos len "Bigbytes.fnv64_feed";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (unsafe_get b i)))) 0x100000001b3L
  done;
  !h

let release = c_release

let io name k = if k >= 0 then k else raise (Unix.Unix_error (error_of_code (-k), name, ""))

let pread fd b ~pos ~len ~off =
  check b pos len "Bigbytes.pread";
  if off < 0 then invalid_arg "Bigbytes.pread";
  io "pread" (c_pread fd b pos len off)

let pwrite fd b ~pos ~len ~off =
  check b pos len "Bigbytes.pwrite";
  if off < 0 then invalid_arg "Bigbytes.pwrite";
  io "pwrite" (c_pwrite fd b pos len off)
