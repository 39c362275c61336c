let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* A width byte, then the significant bytes big-endian. A larger natural
   never has fewer significant bytes, so byte order is integer order, and
   the width byte makes the encoding prefix-free. *)
let of_nat n =
  if n < 0 then invalid_arg (Printf.sprintf "Key.of_nat: negative %d" n);
  let rec width w = if w < 8 && n lsr (8 * w) <> 0 then width (w + 1) else w in
  let w = width 0 in
  String.init (w + 1) (fun i ->
      if i = 0 then Char.chr w else Char.chr ((n lsr (8 * (w - i))) land 0xff))

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

let of_float f =
  let bits = Int64.bits_of_float f in
  (* Positive values: set the sign bit so they sort above negatives.
     Negative values: complement all bits so magnitude order reverses. *)
  let v = if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits in
  let b = Buffer.create 8 in
  for i = 7 downto 0 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
  done;
  Buffer.contents b

(* [of_float]'s image less its trailing zero bytes, with 0x00 written
   0x01 0x01 and 0x01 written 0x01 0x02, then a 0x00 terminator. *)
let of_number f =
  let img = of_float (if f = 0.0 then 0.0 else f) in
  let last = ref 7 in
  while !last >= 0 && img.[!last] = '\000' do
    decr last
  done;
  let b = Buffer.create 10 in
  for i = 0 to !last do
    match img.[i] with
    | '\000' -> Buffer.add_string b "\001\001"
    | '\001' -> Buffer.add_string b "\001\002"
    | c -> Buffer.add_char b c
  done;
  Buffer.add_char b '\000';
  Buffer.contents b

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

let of_string s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      if ch = '\000' then Buffer.add_string b "\000\255" else Buffer.add_char b ch)
    s;
  Buffer.add_string b "\000\000";
  Buffer.contents b

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
