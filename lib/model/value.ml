module Codec = Ode_util.Codec
module Key = Ode_util.Key

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Ref of Oid.t
  | Vref of Oid.vref
  | VList of t list
  | VSet of t list

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | Ref _ -> 5
  | Vref _ -> 6
  | VList _ -> 7
  | VSet _ -> 8

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Ref x, Ref y -> Oid.compare x y
  | Vref x, Vref y -> Oid.compare_vref x y
  | VList x, VList y | VSet x, VSet y -> compare_list x y
  | _ -> Int.compare (rank a) (rank b)

and compare_list x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | a :: x', b :: y' -> ( match compare a b with 0 -> compare_list x' y' | c -> c)

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.pf ppf "%g" f
  | Bool b -> Fmt.bool ppf b
  | Str s -> Fmt.pf ppf "%S" s
  | Ref o -> Oid.pp ppf o
  | Vref v -> Oid.pp_vref ppf v
  | VList vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) vs
  | VSet vs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp) vs

(* [pp]'s text, written straight into [b]: a row of the served [Query]
   reply is rendered this way, at a tenth of [Format]'s allocation. *)
let rec add_to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Int n -> Buffer.add_string b (Int.to_string n)
  | Float f -> Printf.bprintf b "%g" f
  | Bool v -> Buffer.add_string b (Bool.to_string v)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Ref o -> Oid.add_to_buffer b o
  | Vref v -> Oid.add_vref_to_buffer b v
  | VList vs ->
      Buffer.add_char b '[';
      add_list b vs;
      Buffer.add_char b ']'
  | VSet vs ->
      Buffer.add_char b '{';
      add_list b vs;
      Buffer.add_char b '}'

and add_list b = function
  | [] -> ()
  | v :: vs ->
      add_to_buffer b v;
      List.iter
        (fun v ->
          Buffer.add_string b ", ";
          add_to_buffer b v)
        vs

let to_string v =
  let b = Buffer.create 16 in
  add_to_buffer b v;
  Buffer.contents b
let set_of_list vs = VSet (List.sort_uniq compare vs)

let as_set = function
  | VSet vs -> vs
  | v -> invalid_arg (Fmt.str "expected a set, got %a" pp v)

let set_add v s =
  let vs = as_set s in
  if List.exists (equal v) vs then s else VSet (List.sort compare (v :: vs))

let set_remove v s = VSet (List.filter (fun x -> not (equal v x)) (as_set s))
let set_mem v s = List.exists (equal v) (as_set s)

(* Merges of two sets' sorted elements, in one pass over each. On a tie
   the left operand's element is the one kept, as inserting the right's
   elements one by one would keep it ([Int 1] and [Float 1.] are equal). *)
let rec union_into acc xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> List.rev_append acc rest
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then union_into (x :: acc) xs' ys
      else if c > 0 then union_into (y :: acc) xs ys'
      else union_into (x :: acc) xs' ys'

let rec diff_into acc xs ys =
  match (xs, ys) with
  | [], _ -> List.rev acc
  | _, [] -> List.rev_append acc xs
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then diff_into (x :: acc) xs' ys else if c > 0 then diff_into acc xs ys' else diff_into acc xs' ys

let set_union a b = VSet (union_into [] (as_set a) (as_set b))
let set_diff a b = VSet (diff_into [] (as_set a) (as_set b))

(* -- serialization -------------------------------------------------------- *)

let rec encode b = function
  | Null -> Codec.put_u8 b 0
  | Bool v ->
      Codec.put_u8 b 1;
      Codec.put_bool b v
  | Int n ->
      Codec.put_u8 b 2;
      Codec.put_int b n
  | Float f ->
      Codec.put_u8 b 3;
      Codec.put_float b f
  | Str s ->
      Codec.put_u8 b 4;
      Codec.put_string b s
  | Ref o ->
      Codec.put_u8 b 5;
      Oid.encode b o
  | Vref v ->
      Codec.put_u8 b 6;
      Oid.encode_vref b v
  | VList vs ->
      Codec.put_u8 b 7;
      Codec.put_u32 b (List.length vs);
      List.iter (encode b) vs
  | VSet vs ->
      Codec.put_u8 b 8;
      Codec.put_u32 b (List.length vs);
      List.iter (encode b) vs

let rec decode c =
  match Codec.get_u8 c with
  | 0 -> Null
  | 1 -> Bool (Codec.get_bool c)
  | 2 -> Int (Codec.get_int c)
  | 3 -> Float (Codec.get_float c)
  | 4 -> Str (Codec.get_string c)
  | 5 -> Ref (Oid.decode c)
  | 6 -> Vref (Oid.decode_vref c)
  | 7 ->
      let n = Codec.get_u32 c in
      VList (List.init n (fun _ -> decode c))
  | 8 ->
      let n = Codec.get_u32 c in
      VSet (List.init n (fun _ -> decode c))
  | n -> raise (Codec.Corrupt (Printf.sprintf "value: bad tag %d" n))

(* Index keys: a type byte keeps unlike types apart; ints and floats share
   the numeric keyspace so mixed-type predicates behave. A number is
   [Key.of_number]: with its type byte, 4 bytes for an int up to 16 and 5
   below 4,096, where the 8-byte float image took 9. *)
let not_indexable v = invalid_arg (Fmt.str "value %a cannot be an index key" pp v)

let index_key_size = function
  | Null -> 1
  | Bool _ -> 2
  | Int n -> 1 + Key.number_size (float_of_int n)
  | Float f -> 1 + Key.number_size f
  | Str s -> 1 + Key.string_size s
  | Ref o -> 1 + Oid.key_size o
  | (Vref _ | VList _ | VSet _) as v -> not_indexable v

let set_index_key b pos v =
  match v with
  | Null ->
      Bytes.set b pos '\000';
      pos + 1
  | Bool x ->
      Bytes.set b pos '\001';
      Bytes.set b (pos + 1) (if x then '\001' else '\000');
      pos + 2
  | Int n ->
      Bytes.set b pos '\002';
      Key.set_number b (pos + 1) (float_of_int n)
  | Float f ->
      Bytes.set b pos '\002';
      Key.set_number b (pos + 1) f
  | Str s ->
      Bytes.set b pos '\003';
      Key.set_string b (pos + 1) s
  | Ref o ->
      Bytes.set b pos '\004';
      Oid.set_key b (pos + 1) o
  | (Vref _ | VList _ | VSet _) as v -> not_indexable v

let index_key v = Key.build index_key_size set_index_key v

let fields_encode fields =
  let b = Buffer.create 128 in
  Codec.put_u16 b (List.length fields);
  List.iter
    (fun (name, v) ->
      Codec.put_string b name;
      encode b v)
    fields;
  Buffer.contents b
