module Codec = Ode_util.Codec

let roundtrip_unit () =
  let b = Buffer.create 64 in
  Codec.put_u8 b 0xab;
  Codec.put_u16 b 0xbeef;
  Codec.put_u32 b 0xdeadbeef;
  Codec.put_int b (-42);
  Codec.put_int b max_int;
  Codec.put_float b 3.25;
  Codec.put_bool b true;
  Codec.put_bool b false;
  Codec.put_string b "hello\000world";
  Codec.put_raw b "tail";
  let c = Codec.cursor (Buffer.contents b) in
  Tutil.check_int "u8" 0xab (Codec.get_u8 c);
  Tutil.check_int "u16" 0xbeef (Codec.get_u16 c);
  Tutil.check_int "u32" 0xdeadbeef (Codec.get_u32 c);
  Tutil.check_int "int neg" (-42) (Codec.get_int c);
  Tutil.check_int "int max" max_int (Codec.get_int c);
  Alcotest.(check (float 0.0)) "float" 3.25 (Codec.get_float c);
  Tutil.check_bool "bool t" true (Codec.get_bool c);
  Tutil.check_bool "bool f" false (Codec.get_bool c);
  Tutil.check_string "string" "hello\000world" (Codec.get_string c);
  Tutil.check_string "raw" "tail" (Codec.get_raw c 4);
  Tutil.check_bool "at end" true (Codec.at_end c)

let truncated () =
  let c = Codec.cursor "ab" in
  match
    ignore (Codec.get_u16 c);
    Codec.get_u16 c
  with
  | _ -> Alcotest.fail "expected Corrupt on truncated input"
  | exception Codec.Corrupt _ -> ()

let bad_bool () =
  let c = Codec.cursor "\007" in
  (match Codec.get_bool c with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Codec.Corrupt _ -> ())

let string_prefix_independent () =
  (* Two strings encoded back to back decode independently. *)
  let b = Buffer.create 16 in
  Codec.put_string b "";
  Codec.put_string b "x";
  let c = Codec.cursor (Buffer.contents b) in
  Tutil.check_string "empty" "" (Codec.get_string c);
  Tutil.check_string "x" "x" (Codec.get_string c)

let fnv_distinct () =
  Tutil.check_bool "hash differs" true (Codec.fnv64 "abc" <> Codec.fnv64 "abd");
  Tutil.check_bool "hash stable" true (Codec.fnv64 "abc" = Codec.fnv64 "abc")

(* FNV-1a's published vectors and a 64 KiB block keep their exact hashes,
   so logs and pages written by earlier builds still verify; the range and
   [bytes] forms agree with the whole-string one. *)
let block = String.init 65536 (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let fnv_vectors () =
  let check what want got = Alcotest.(check int64) what want got in
  check "empty" 0xcbf29ce484222325L (Codec.fnv64 "");
  check "a" 0xaf63dc4c8601ec8cL (Codec.fnv64 "a");
  check "foobar" 0x85944171f73967e8L (Codec.fnv64 "foobar");
  check "64 KiB block" 0xdf04d79db8262325L (Codec.fnv64 block);
  check "range" (Codec.fnv64 "foobar") (Codec.fnv64_sub "[foobar]" ~pos:1 ~len:6);
  check "off-heap bytes" (Codec.fnv64 "foobar")
    (Ode_storage.Bigbytes.fnv64_feed Codec.fnv64_init (Ode_storage.Bigbytes.of_string "xfoobar") ~pos:1 ~len:6);
  match Codec.fnv64_sub "abc" ~pos:2 ~len:2 with
  | _ -> Alcotest.fail "a range past the end hashed"
  | exception Invalid_argument _ -> ()

(* Hashing allocates nothing per byte: 64 KiB costs at most its boxed
   result (a closure over a boxed [Int64] cost ~6 words a byte). *)
let fnv_allocates_nothing () =
  ignore (Sys.opaque_identity (Codec.fnv64 block));
  let w0 = Gc.minor_words () in
  let h = Codec.fnv64 block in
  let h' = Codec.fnv64_sub block ~pos:1 ~len:65535 in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity (h, h'));
  if words > 16. then Alcotest.failf "hashing 2 x 64 KiB allocated %.0f minor words" words

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int roundtrip" ~count:500 QCheck.int (fun n ->
      let b = Buffer.create 8 in
      Codec.put_int b n;
      Codec.get_int (Codec.cursor (Buffer.contents b)) = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 QCheck.string (fun s ->
      let b = Buffer.create 8 in
      Codec.put_string b s;
      Codec.get_string (Codec.cursor (Buffer.contents b)) = s)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float roundtrip" ~count:500 QCheck.float (fun f ->
      let b = Buffer.create 8 in
      Codec.put_float b f;
      let f' = Codec.get_float (Codec.cursor (Buffer.contents b)) in
      Int64.bits_of_float f = Int64.bits_of_float f')

(* -- varints ---------------------------------------------------------- *)

let varint_bytes n =
  let b = Buffer.create 9 in
  Codec.put_varint b n;
  Buffer.contents b

let raises_corrupt s =
  match Codec.get_varint (Codec.cursor s) with _ -> false | exception Codec.Corrupt _ -> true

(* Non-negative ints, weighted toward the byte boundaries. *)
let arb_nat =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      oneof
        [
          map (fun n -> n land max_int) int;
          map (fun k -> (1 lsl (7 * k)) - 1) (int_range 1 8);
          map (fun k -> 1 lsl (7 * k)) (int_range 1 8);
          return max_int;
          small_nat;
        ])

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000 arb_nat (fun n ->
      let s = varint_bytes n in
      let c = Codec.cursor s in
      Codec.get_varint c = n && Codec.at_end c && String.length s = Codec.varint_size n)

let prop_varint_small =
  QCheck.Test.make ~name:"varint is one byte below 128" ~count:200 (QCheck.int_bound 127) (fun n ->
      varint_bytes n = String.make 1 (Char.chr n))

let prop_varint_truncated =
  QCheck.Test.make ~name:"truncated varint raises" ~count:500
    (QCheck.pair arb_nat QCheck.small_nat)
    (fun (n, cut) ->
      let s = varint_bytes n in
      raises_corrupt (String.sub s 0 (cut mod String.length s)))

let prop_varint_overlong =
  QCheck.Test.make ~name:"overlong varint raises" ~count:500 arb_nat (fun n ->
      let s = varint_bytes n in
      let last = String.length s - 1 in
      (* The same value with a zero group appended: not shortest form. *)
      let padded =
        String.sub s 0 last ^ String.make 1 (Char.chr (Char.code s.[last] lor 0x80)) ^ "\000"
      in
      raises_corrupt padded)

(* Signed varints: every int, both signs, one byte from -64 to 63, nine
   at the extremes, and the same strictness on input. *)
let svarint_bytes n =
  let b = Buffer.create 9 in
  Codec.put_svarint b n;
  Buffer.contents b

let prop_svarint_roundtrip =
  QCheck.Test.make ~name:"svarint roundtrip" ~count:1000
    QCheck.(pair arb_nat bool)
    (fun (n, neg) ->
      let n = if neg then -n - 1 else n in
      let s = svarint_bytes n in
      let c = Codec.cursor s in
      Codec.get_svarint c = n && Codec.at_end c
      && (String.length s = 1) = (n >= -64 && n <= 63))

let svarint_edges () =
  List.iter
    (fun n ->
      Tutil.check_int (Printf.sprintf "%d in nine bytes" n) 9 (String.length (svarint_bytes n));
      Tutil.check_int "round trip" n (Codec.get_svarint (Codec.cursor (svarint_bytes n))))
    [ max_int; min_int ];
  let raises s =
    match Codec.get_svarint (Codec.cursor s) with _ -> false | exception Codec.Corrupt _ -> true
  in
  Tutil.check_bool "a tenth byte overflows" true (raises (String.make 9 '\xff' ^ "\001"));
  Tutil.check_bool "overlong" true (raises "\x81\x00");
  Tutil.check_bool "truncated" true (raises "\x81")

let varint_overflow () =
  Tutil.check_bool "max_int encodes in nine bytes" true (String.length (varint_bytes max_int) = 9);
  Tutil.check_bool "a tenth byte overflows" true (raises_corrupt (String.make 9 '\xff' ^ "\001"));
  Tutil.check_bool "past max_int in nine bytes" true (raises_corrupt (String.make 8 '\xff' ^ "\x40"));
  match Codec.put_varint (Buffer.create 1) (-1) with
  | () -> Alcotest.fail "negative varint encoded"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "codec",
      [
        Alcotest.test_case "roundtrip all types" `Quick roundtrip_unit;
        Alcotest.test_case "truncated input raises" `Quick truncated;
        Alcotest.test_case "bad bool raises" `Quick bad_bool;
        Alcotest.test_case "strings are framed" `Quick string_prefix_independent;
        Alcotest.test_case "fnv64 behaves" `Quick fnv_distinct;
        Alcotest.test_case "fnv64 keeps its vectors" `Quick fnv_vectors;
        Alcotest.test_case "fnv64 allocates nothing per byte" `Quick fnv_allocates_nothing;
        Alcotest.test_case "varint overflow raises" `Quick varint_overflow;
        Alcotest.test_case "svarint extremes" `Quick svarint_edges;
      ] );
    Tutil.qsuite "codec.props"
      [
        prop_int_roundtrip;
        prop_string_roundtrip;
        prop_float_roundtrip;
        prop_varint_roundtrip;
        prop_varint_small;
        prop_varint_truncated;
        prop_varint_overlong;
        prop_svarint_roundtrip;
      ];
  ]
