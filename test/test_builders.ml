(* The write path builds each header key, index key and object record
   once, at its final size ([Keys.header], [Keys.index_of_value],
   [Store.encode_object]). These cases check, over seeded draws, that
   their bytes are those of the composed definitions they replace: the
   "H" tag before [Oid.key], [Keys.index_entry] of [Value.index_key],
   and a record appended to a [Buffer] field by field. The composed
   definitions, with the key encoders they were made of, are kept here
   as written before the builders, as the reference. *)

module Db = Ode.Database
module Keys = Ode.Keys
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Otype = Ode_model.Otype
module Codec = Ode_util.Codec
module Prng = Ode_util.Prng

(* -- the reference: the composed definitions ---------------------------------- *)

module Ref = struct
  let of_nat n =
    let rec width w = if w < 8 && n lsr (8 * w) <> 0 then width (w + 1) else w in
    let w = width 0 in
    String.init (w + 1) (fun i -> if i = 0 then Char.chr w else Char.chr ((n lsr (8 * (w - i))) land 0xff))

  let of_float f =
    let bits = Int64.bits_of_float f in
    let v = if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits in
    let b = Buffer.create 8 in
    for i = 7 downto 0 do
      Buffer.add_char b (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
    done;
    Buffer.contents b

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

  let of_string s =
    let b = Buffer.create (String.length s + 2) in
    String.iter (fun ch -> if ch = '\000' then Buffer.add_string b "\000\255" else Buffer.add_char b ch) s;
    Buffer.add_string b "\000\000";
    Buffer.contents b

  let oid_key (o : Oid.t) = of_nat o.cls ^ of_nat o.num

  let index_key : Value.t -> string = function
    | Null -> "\000"
    | Bool v -> "\001" ^ if v then "\001" else "\000"
    | Int n -> "\002" ^ of_number (float_of_int n)
    | Float f -> "\002" ^ of_number f
    | Str s -> "\003" ^ of_string s
    | Ref o -> "\004" ^ oid_key o
    | _ -> invalid_arg "not indexable"

  let header oid = "H" ^ oid_key oid

  let index_entry ~idx_id ~value ~oid = String.concat "" [ "I"; of_nat idx_id; index_key value; oid_key oid ]

  let put_header b (h : Ode.Types.header) =
    match h with
    | { hcurrent = 0; hversions = [ 0 ] } -> Codec.put_u8 b 0
    | _ ->
        Codec.put_varint b (List.length h.hversions + 1);
        Codec.put_varint b h.hcurrent;
        List.iter (Codec.put_varint b) h.hversions

  let put_oid b (o : Oid.t) =
    Codec.put_varint b o.cls;
    Codec.put_varint b o.num

  let rec put_slot b (t : Otype.t) (v : Value.t) =
    match (t, v) with
    | TInt, Int n -> Codec.put_svarint b n
    | TBool, Bool x -> Codec.put_bool b x
    | TString, Str s ->
        Codec.put_varint b (String.length s);
        Buffer.add_string b s
    | TFloat, Float f ->
        Codec.put_u8 b 0;
        Codec.put_float b f
    | TFloat, Int n ->
        Codec.put_u8 b 1;
        Codec.put_svarint b n
    | TRef _, Null -> Codec.put_u8 b 0
    | TRef _, Ref o ->
        Codec.put_u8 b 1;
        put_oid b o
    | TRef _, Vref vr ->
        Codec.put_u8 b 2;
        put_oid b vr.oid;
        Codec.put_varint b vr.ver
    | TSet t, VSet vs | TList t, VList vs ->
        Codec.put_varint b (List.length vs);
        List.iter (put_slot b t) vs
    | _ -> invalid_arg "not a slot of this type"

  let encode_object (types : Otype.t array) h slots =
    let b = Buffer.create 32 in
    put_header b h;
    Array.iteri (fun i v -> put_slot b types.(i) v) slots;
    Buffer.contents b
end

(* -- draws ------------------------------------------------------------------- *)

(* A natural of [w] significant bytes, 0 to 8: 0 for none, else one in
   [2^(8(w-1)), 2^(8w)), up to max_int. *)
let nat_of_width rng w =
  if w = 0 then 0
  else
    let r = Int64.to_int (Prng.next rng) land max_int in
    let mask = if w = 8 then max_int else (1 lsl (8 * w)) - 1 in
    r land mask lor (1 lsl (8 * (w - 1)))

let nat rng = nat_of_width rng (Prng.int rng 9)
let oid rng : Oid.t = { cls = nat rng; num = nat rng }

let ints =
  [| 0; 1; -1; 2; 15; 16; 17; 255; 256; 4095; 4096; 65_535; 1 lsl 53; (1 lsl 53) + 1; -(1 lsl 53);
     max_int; min_int; max_int - 1; min_int + 1 |]

let floats =
  [| 0.; -0.; 1.; -1.; 0.5; -0.5; 1e-300; -1e-300; 4.9e-324; 1e300; Float.max_float; Float.min_float;
     infinity; neg_infinity; nan; Float.pi; 3.; 1.5 |]

let bytes = [| '\000'; '\001'; '\002'; '\255'; 'a'; '\000'; 'z' |]
let str rng = String.init (Prng.int rng 12) (fun _ -> Prng.pick rng bytes)

let value rng : Value.t =
  match Prng.int rng 8 with
  | 0 -> Null
  | 1 -> Bool (Prng.bool rng)
  | 2 -> Int (Prng.pick rng ints)
  | 3 -> Int (nat rng * if Prng.bool rng then 1 else -1)
  | 4 -> Float (Prng.pick rng floats)
  | 5 -> Float (Prng.float rng 1e6 -. 5e5)
  | 6 -> Str (str rng)
  | _ -> Ref (oid rng)

let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
let check name want got = if want <> got then Alcotest.failf "%s: %s, the reference %s" name (hex got) (hex want)

let cases = 3_000

let header_keys () =
  let rng = Prng.create 46 in
  for w = 0 to 8 do
    for v = 0 to 8 do
      let o : Oid.t = { cls = nat_of_width rng w; num = nat_of_width rng v } in
      check (Fmt.str "header %a" Oid.pp o) (Ref.header o) (Keys.header o)
    done
  done;
  for _ = 1 to cases do
    let o = oid rng in
    check (Fmt.str "header %a" Oid.pp o) (Ref.header o) (Keys.header o)
  done

let index_keys () =
  let rng = Prng.create 47 in
  for _ = 1 to cases do
    let idx_id = nat rng and value = value rng and oid = oid rng in
    let name = Fmt.str "index %d %a %a" idx_id Value.pp value Oid.pp oid in
    let built = Keys.index_of_value ~idx_id ~value ~oid in
    check name (Ref.index_entry ~idx_id ~value ~oid) built;
    check name (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid) built;
    check name (Ref.index_key value) (Value.index_key value)
  done

(* A class with a field of every slot type, records with random headers
   and values. *)
let records () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  ignore
    (Db.define db
       "class g { i: int; b: bool; s: string; f: float; r: ref g; xs: set<int>; l: list<ref g>; ss: set<string>; };");
  Db.create_cluster db "g";
  let types = Otype.[| TInt; TBool; TString; TFloat; TRef "g"; TSet TInt; TList (TRef "g"); TSet TString |] in
  let rng = Prng.create 48 in
  let int () = match Prng.int rng 3 with 0 -> Prng.pick rng ints | 1 -> nat rng | _ -> - nat rng in
  let rf () : Value.t =
    match Prng.int rng 3 with
    | 0 -> Null
    | 1 -> Ref (oid rng)
    | _ -> Vref { oid = oid rng; ver = nat rng }
  in
  let some f = List.init (Prng.int rng 5) (fun _ -> f ()) in
  for _ = 1 to cases do
    let o : Oid.t = { cls = 0; num = nat rng } in
    let slots : Value.t array =
      [|
        Int (int ());
        Bool (Prng.bool rng);
        Str (str rng);
        (if Prng.bool rng then Float (Prng.pick rng floats) else Int (int ()));
        rf ();
        Value.set_of_list (some (fun () -> Value.Int (int ())));
        VList (some rf);
        Value.set_of_list (some (fun () -> Value.Str (str rng)));
      |]
    in
    let h : Ode.Types.header =
      if Prng.bool rng then { hcurrent = 0; hversions = [ 0 ] }
      else
        let vs = List.init (1 + Prng.int rng 4) (fun _ -> nat rng) in
        { hcurrent = List.hd vs; hversions = vs }
    in
    check
      (Fmt.str "record of %a" Fmt.(array ~sep:comma Value.pp) slots)
      (Ref.encode_object types h slots)
      (Ode.Store.encode_object db o h slots)
  done

let suite =
  [
    ( "keys.build",
      [
        Alcotest.test_case "header keys" `Quick header_keys;
        Alcotest.test_case "index keys" `Quick index_keys;
        Alcotest.test_case "object records" `Quick records;
      ] );
  ]
