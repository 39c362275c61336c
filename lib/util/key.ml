let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* A width byte, then the significant bytes big-endian. A larger natural
   never has fewer significant bytes, so byte order is integer order, and
   the width byte makes the encoding prefix-free. *)
let rec width n w = if w < 8 && n lsr (8 * w) <> 0 then width n (w + 1) else w

let nat_width n =
  if n < 0 then invalid_arg (Printf.sprintf "Key.of_nat: negative %d" n);
  width n 0

let nat_size n = nat_width n + 1

let set_nat b pos n =
  let w = nat_width n in
  Bytes.set b pos (Char.unsafe_chr w);
  for i = 1 to w do
    Bytes.set b (pos + i) (Char.unsafe_chr ((n lsr (8 * (w - i))) land 0xff))
  done;
  pos + w + 1

(* A key component built once, at its final size, by its [size] and [set]. *)
let build size set x =
  let b = Bytes.create (size x) in
  ignore (set b 0 x);
  Bytes.unsafe_to_string b

let of_nat n = build nat_size set_nat n

let nat_at s pos =
  let len = String.length s in
  if pos >= len then corrupt "key: natural missing at byte %d" pos;
  let w = Char.code s.[pos] in
  if w > 8 || pos + 1 + w > len then corrupt "key: bad natural width %d at byte %d" w pos;
  (* Canonical only: no leading zero byte, and no ninth bit past max_int. *)
  if w > 0 && (s.[pos + 1] = '\000' || (w = 8 && Char.code s.[pos + 1] >= 0x40)) then
    corrupt "key: non-canonical natural at byte %d" pos;
  let n = ref 0 in
  for i = pos + 1 to pos + w do
    n := (!n lsl 8) lor Char.code s.[i]
  done;
  (!n, pos + 1 + w)

(* A float's order-preserving 8-byte image, with [-0.0] written as
   [0.0], as two 32-bit halves. Positive floats get their sign bit set,
   negative floats are complemented so magnitude order reverses. *)
let[@inline] image f =
  let v = Int64.bits_of_float (if f = 0.0 then 0.0 else f) in
  if v >= 0L then Int64.logxor v Int64.min_int else Int64.lognot v

let image_hi f = Int64.to_int (Int64.shift_right_logical (image f) 32)
let image_lo f = Int64.to_int (image f) land 0xffff_ffff

(* Byte [i] of the image whose halves are [hi] and [lo]. *)
let image_byte hi lo i = if i < 4 then (hi lsr (8 * (3 - i))) land 0xff else (lo lsr (8 * (7 - i))) land 0xff

(* The index of the image's last non-zero byte from [i] down, -1 when all
   are zero. *)
let rec image_last hi lo i = if i >= 0 && image_byte hi lo i = 0 then image_last hi lo (i - 1) else i

(* The image less its trailing zero bytes, with 0x00 written
   0x01 0x01 and 0x01 written 0x01 0x02, then a 0x00 terminator. *)
let number_size f =
  let hi = image_hi f and lo = image_lo f in
  let n = ref 1 in
  for i = 0 to image_last hi lo 7 do
    n := !n + if image_byte hi lo i < 2 then 2 else 1
  done;
  !n

let set_number b pos f =
  let hi = image_hi f and lo = image_lo f in
  let p = ref pos in
  for i = 0 to image_last hi lo 7 do
    let c = image_byte hi lo i in
    if c < 2 then begin
      Bytes.set b !p '\001';
      Bytes.set b (!p + 1) (Char.unsafe_chr (c + 1));
      p := !p + 2
    end
    else begin
      Bytes.set b !p (Char.unsafe_chr c);
      incr p
    end
  done;
  Bytes.set b !p '\000';
  !p + 1

let of_number f = build number_size set_number f

let number_end s pos =
  let len = String.length s in
  (* [n] image bytes so far, the last of them [last] *)
  let rec go i n last =
    if i >= len then corrupt "key: unterminated number at byte %d" pos;
    if n > 8 then corrupt "key: number at byte %d longer than 8 bytes" pos;
    match s.[i] with
    | '\000' ->
        if n > 0 && last = 0 then corrupt "key: non-canonical number at byte %d" pos;
        i + 1
    | '\001' -> (
        if i + 1 >= len then corrupt "key: unterminated number at byte %d" pos;
        match s.[i + 1] with
        | '\001' -> go (i + 2) (n + 1) 0
        | '\002' -> go (i + 2) (n + 1) 1
        | _ -> corrupt "key: bad number escape at byte %d" i)
    | c -> go (i + 1) (n + 1) (Char.code c)
  in
  go pos 0 (-1)

let string_size s =
  let n = ref (String.length s + 2) in
  for i = 0 to String.length s - 1 do
    if String.unsafe_get s i = '\000' then incr n
  done;
  !n

let set_string b pos s =
  let p = ref pos in
  for i = 0 to String.length s - 1 do
    let ch = String.unsafe_get s i in
    Bytes.set b !p ch;
    if ch = '\000' then begin
      Bytes.set b (!p + 1) '\255';
      p := !p + 2
    end
    else incr p
  done;
  Bytes.set b !p '\000';
  Bytes.set b (!p + 1) '\000';
  !p + 2

let of_string s = build string_size set_string s

let rec string_end s pos =
  match String.index_from_opt s pos '\000' with
  | Some i when i + 1 < String.length s -> (
      match s.[i + 1] with
      | '\000' -> i + 2
      | '\255' -> string_end s (i + 2)
      | _ -> corrupt "key: bad string escape at byte %d" i)
  | _ -> corrupt "key: unterminated string at byte %d" pos

let of_bool v = if v then "\001" else "\000"
let concat = String.concat ""

let succ_prefix p =
  let b = Bytes.of_string p in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\255' then begin
      bump (i - 1)
    end
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

(* The first seven bytes of [s], big-endian, zero-padded. Where two
   strings' heads differ, they order the strings as [String.compare]
   does: at the first byte that differs, either both are the strings'
   own, or the lesser is padding and its string a prefix of the other. *)
let head s =
  let n = String.length s in
  let h = ref 0 in
  for i = 0 to 6 do
    h := (!h lsl 8) lor if i < n then Char.code (String.unsafe_get s i) else 0
  done;
  !h

(* A least-significant-byte-first radix sort of the indices by their
   heads, one counting pass a byte, skipping a byte every head shares;
   then each run of tied heads sorted by whole key. Its seven passes
   over 256 counts cost more than comparing a few keys, so a short
   array is sorted by comparison alone. (At 256 words the counts are a
   minor-heap block; one more word and every commit would allocate one
   in the major heap.) *)
let sort_by key a =
  let n = Array.length a in
  let by_key x y = String.compare (key x) (key y) in
  if n < 64 then begin
    let b = Array.copy a in
    Array.stable_sort by_key b;
    b
  end
  else begin
    let heads = Array.map (fun x -> head (key x)) a in
    let order = ref (Array.init n Fun.id) and spare = ref (Array.make n 0) in
    let count = Array.make 256 0 in
    for byte = 0 to 6 do
      let src = !order and dst = !spare and shift = 8 * byte in
      Array.fill count 0 256 0;
      for k = 0 to n - 1 do
        let d = (heads.(src.(k)) lsr shift) land 0xff in
        count.(d) <- count.(d) + 1
      done;
      if not (Array.mem n count) then begin
        let sum = ref 0 in
        for d = 0 to 255 do
          let c = count.(d) in
          count.(d) <- !sum;
          sum := !sum + c
        done;
        for k = 0 to n - 1 do
          let i = src.(k) in
          let d = (heads.(i) lsr shift) land 0xff in
          dst.(count.(d)) <- i;
          count.(d) <- count.(d) + 1
        done;
        order := dst;
        spare := src
      end
    done;
    let order = !order in
    let k = ref 0 in
    while !k < n do
      let h = heads.(order.(!k)) and e = ref (!k + 1) in
      while !e < n && heads.(order.(!e)) = h do
        incr e
      done;
      if !e - !k > 1 then begin
        let run = Array.sub order !k (!e - !k) in
        Array.stable_sort (fun i j -> by_key a.(i) a.(j)) run;
        Array.blit run 0 order !k (!e - !k)
      end;
      k := !e
    done;
    Array.map (fun i -> a.(i)) order
  end
