(* The 64-bit state lives in an 8-byte [bytes], read and written with the
   compiler's unboxed primitives, and every draw goes through the inlined
   [step]: a draw of an int, a bool or a string's letter boxes nothing. *)
type t = bytes

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

(* splitmix64: fast, full-period, good statistical quality for workloads. *)
let[@inline] step t =
  let z = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t = step t

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value is a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let string t n =
  let s = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set s i (Char.unsafe_chr (Char.code 'a' + int t 26))
  done;
  Bytes.unsafe_to_string s
