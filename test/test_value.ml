module Value = Ode_model.Value
module Oid = Ode_model.Oid

let v_int n = Value.Int n
let v_str s = Value.Str s

let oid cls num : Oid.t = { cls; num }

let compare_total_order () =
  (* Constructor rank keeps unlike types ordered deterministically. *)
  Tutil.check_bool "null < bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Tutil.check_bool "bool < int" true (Value.compare (Value.Bool true) (v_int 0) < 0);
  Tutil.check_bool "int/float mix" true (Value.compare (v_int 1) (Value.Float 1.5) < 0);
  Tutil.check_bool "int = float" true (Value.compare (v_int 2) (Value.Float 2.0) = 0);
  Tutil.check_bool "refs by oid" true
    (Value.compare (Value.Ref (oid 0 1)) (Value.Ref (oid 0 2)) < 0)

let set_normalization () =
  let s = Value.set_of_list [ v_int 3; v_int 1; v_int 3; v_int 2 ] in
  Tutil.check_value "sorted, deduped" (Value.VSet [ v_int 1; v_int 2; v_int 3 ]) s;
  let s2 = Value.set_add (v_int 2) s in
  Tutil.check_value "add existing is idempotent" s s2;
  let s3 = Value.set_add (v_int 0) s in
  Tutil.check_value "add keeps order" (Value.VSet [ v_int 0; v_int 1; v_int 2; v_int 3 ]) s3;
  let s4 = Value.set_remove (v_int 1) s in
  Tutil.check_value "remove" (Value.VSet [ v_int 2; v_int 3 ]) s4;
  Tutil.check_bool "mem" true (Value.set_mem (v_int 2) s);
  Tutil.check_bool "not mem" false (Value.set_mem (v_int 9) s4)

let value_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Value.Null;
        map (fun n -> Value.Int n) int;
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Float f) (float_bound_exclusive 1e6);
        map (fun s -> Value.Str s) (string_size (int_bound 12));
        map2 (fun c n -> Value.Ref (oid (abs c mod 8) (abs n mod 1000))) int int;
        map2 (fun c n -> Value.Vref { oid = oid (abs c mod 8) (abs n mod 1000); ver = abs n mod 5 }) int int;
      ]
  in
  let container =
    oneof
      [
        base;
        map (fun vs -> Value.VList vs) (list_size (int_bound 5) base);
        map (fun vs -> Value.set_of_list vs) (list_size (int_bound 5) base);
      ]
  in
  container

let arb_value = QCheck.make ~print:Value.to_string value_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"value encode/decode roundtrip" ~count:500 arb_value (fun v ->
      let b = Buffer.create 32 in
      Value.encode b v;
      Value.equal v (Value.decode (Ode_util.Codec.cursor (Buffer.contents b))))

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:500 (QCheck.pair arb_value arb_value)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_compare_trans =
  QCheck.Test.make ~name:"sorting is stable under compare" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) arb_value)
    (fun vs ->
      let sorted = List.sort Value.compare vs in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> Value.compare a b <= 0 && nondecreasing rest
        | _ -> true
      in
      nondecreasing sorted)

let indexable_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun n -> Value.Int n) (int_range (-100000) 100000);
        map (fun f -> Value.Float f) (float_bound_exclusive 1e6);
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Str s) (string_size (int_bound 12));
      ])

let prop_index_key_order =
  QCheck.Test.make ~name:"index keys order like values" ~count:1000
    (QCheck.make ~print:Value.to_string indexable_gen |> fun a -> QCheck.pair a a)
    (fun (a, b) ->
      let sign n = compare n 0 in
      (* Only comparable when both are numeric or same constructor. *)
      let comparable =
        match (a, b) with
        | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> true
        | Value.Str _, Value.Str _ | Value.Bool _, Value.Bool _ | Value.Null, Value.Null -> true
        | _ -> false
      in
      QCheck.assume comparable;
      sign (compare (Value.index_key a) (Value.index_key b)) = sign (Value.compare a b))

(* Numeric index keys: ints and floats, the edges of each included, in
   one order, their numeric one, and in a prefix-free form, so a value's
   key bounds an index's entries for that value alone. NaN, which
   [Float.compare] puts below every number and the key encoding above,
   is left out. *)
let numeric_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          oneofl
            [
              Value.Int 0; Value.Int 1; Value.Int (-1); Value.Int max_int; Value.Int min_int;
              Value.Int (1 lsl 53); Value.Int (-(1 lsl 53)); Value.Int ((1 lsl 53) + 1);
              Value.Float 0.0; Value.Float (-0.0); Value.Float infinity; Value.Float neg_infinity;
              Value.Float 0x1p53; Value.Float (-0x1p53); Value.Float 1e-300; Value.Float 4.9e-324;
            ] );
        (3, map (fun n -> Value.Int n) int);
        (3, map (fun n -> Value.Int n) (int_range (-70_000) 70_000));
        (3, map (fun f -> Value.Float f) float);
      ])

let prop_numeric_keys =
  QCheck.Test.make ~name:"numeric keys order like numbers" ~count:2000
    (QCheck.make ~print:Value.to_string numeric_gen |> fun a -> QCheck.pair a a)
    (fun (a, b) ->
      let num = function Value.Int n -> float_of_int n | Value.Float f -> f | _ -> assert false in
      QCheck.assume (not (Float.is_nan (num a) || Float.is_nan (num b)));
      let ka = Value.index_key a and kb = Value.index_key b in
      let sign n = compare n 0 in
      sign (compare ka kb) = sign (Float.compare (num a) (num b))
      && (ka = kb || not (String.starts_with ~prefix:ka kb || String.starts_with ~prefix:kb ka))
      && Ode.Keys.valkey_end ka 0 = String.length ka)

(* [Value.encode] and [Value.fields_encode] are the benchmark's yardstick:
   its [space_amp] divides store bytes by [fields_encode] of the live
   objects. Store records no longer use [fields_encode], so a change to
   either encoder would move the denominator rather than the store. The
   bytes below were produced by the encoders before records became
   schema-described. *)
let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let golden_fields : (string * Value.t * string) list =
  [
    ("n", Value.Null, "00");
    ("b", Value.Bool true, "0101");
    ("i", Value.Int (-42), "02d6ffffffffffffff");
    ("f", Value.Float 1.5, "03000000000000f83f");
    ("s", Value.Str "h\000i", "0403000000680069");
    ("r", Value.Ref (oid 3 70000), "05030000007011010000000000");
    ("vr", Value.Vref { oid = oid 1 2; ver = 5 }, "0601000000020000000000000005000000");
    ("l", Value.VList [ v_int 1; v_str "x" ], "0702000000020100000000000000040100000078");
    ("set", Value.VSet [ Value.Bool false; v_int 7 ], "08020000000100020700000000000000");
  ]

let golden_bytes () =
  List.iter
    (fun (name, v, expected) ->
      let b = Buffer.create 16 in
      Value.encode b v;
      Alcotest.(check string) ("encode " ^ name) expected (hex (Buffer.contents b)))
    golden_fields;
  Alcotest.(check string)
    "fields_encode"
    ("0900010000006e0001000000620101010000006902d6ffffffffffffff010000006603000000000000f83f"
   ^ "010000007304030000006800690100000072050300000070110100000000000200000076720601000000"
   ^ "020000000000000005000000010000006c07020000000201000000000000000401000000780300000073"
   ^ "657408020000000100020700000000000000")
    (hex (Value.fields_encode (List.map (fun (n, v, _) -> (n, v)) golden_fields)))

let index_key_rejects_containers () =
  match Value.index_key (Value.VSet [ v_str "x" ]) with
  | _ -> Alcotest.fail "sets must not be indexable"
  | exception Invalid_argument _ -> ()

(* Values as a query row prints them: every float class [%g] renders
   (nan, infinities, signed zero, subnormals), strings of any bytes, whose
   [%S] escapes them, and lists and sets nested three deep. *)
let rendered_gen =
  let open QCheck.Gen in
  let float =
    oneof
      [
        float;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 5e-324; 1e300; 0.1; 123456789. ];
      ]
  in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun n -> Value.Int n) int;
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size ~gen:char (int_bound 12));
        map2 (fun c n -> Value.Ref (oid c n)) nat nat;
        map3 (fun c n ver -> Value.Vref { oid = oid c n; ver }) nat nat nat;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun vs -> Value.VList vs) (list_size (int_bound 4) (self (depth - 1))));
            (1, map Value.set_of_list (list_size (int_bound 4) (self (depth - 1))));
          ])
    3

let fmt_row oid fields =
  Fmt.str "%a {%s}" Oid.pp oid
    (String.concat ", " (List.map (fun (f, v) -> f ^ " = " ^ Fmt.str "%a" Value.pp v) fields))

let prop_rendering_identity =
  QCheck.Test.make ~name:"rows render as Format prints them" ~count:1000
    QCheck.(
      make
        ~print:(fun (_, fields) -> String.concat ", " (List.map (fun (f, v) -> f ^ " = " ^ Fmt.str "%a" Value.pp v) fields))
        Gen.(pair (pair nat nat) (list_size (int_bound 4) (pair (string_size ~gen:printable (int_range 1 6)) rendered_gen))))
    (fun ((c, n), fields) ->
      List.for_all (fun (_, v) -> Value.to_string v = Fmt.str "%a" Value.pp v) fields
      && Ode.Shell.row_text (oid c n) fields = fmt_row (oid c n) fields)

(* Union and difference by merge against what [Eval] did before them:
   fold [set_add], or [set_remove], over the right operand's elements.
   The folds stay here as the reference. Elements mix small ints,
   floats that tie with them, short strings, refs and nested sets, so
   equal-but-unlike elements ([Int 1], [Float 1.]) meet often, and the
   left operand's must be the one kept. *)
let elements = function Value.VSet vs -> vs | _ -> assert false
let union_fold a b = List.fold_left (fun acc v -> Value.set_add v acc) a (elements b)
let diff_fold a b = List.fold_left (fun acc v -> Value.set_remove v acc) a (elements b)

let set_merges () =
  let rng = Ode_util.Prng.create 24 in
  let pick a = Ode_util.Prng.pick rng a in
  let floats = [| -2.; -0.5; -0.; 0.; 1.; 1.5; 3. |] in
  let rec elem depth =
    match Ode_util.Prng.int rng (if depth > 0 then 6 else 5) with
    | 0 | 1 -> Value.Int (Ode_util.Prng.int rng 9 - 4)
    | 2 -> Value.Float (pick floats)
    | 3 -> Value.Str (String.init (Ode_util.Prng.int rng 3) (fun _ -> pick [| 'a'; 'b'; '\000' |]))
    | 4 -> Value.Ref (oid (Ode_util.Prng.int rng 2) (Ode_util.Prng.int rng 4))
    | _ -> set (depth - 1) 4
  and set depth most = Value.set_of_list (List.init (Ode_util.Prng.int rng (most + 1)) (fun _ -> elem depth)) in
  let same = Alcotest.testable Value.pp (fun x y -> Stdlib.compare x y = 0) in
  for case = 1 to 1_500 do
    let a = set 1 12 and b = set 1 12 in
    let name what = Printf.sprintf "case %d: %s of %s and %s" case what (Value.to_string a) (Value.to_string b) in
    Alcotest.check same (name "union") (union_fold a b) (Value.set_union a b);
    Alcotest.check same (name "difference") (diff_fold a b) (Value.set_diff a b)
  done

let suite =
  [
    ( "value",
      [
        Alcotest.test_case "total order across types" `Quick compare_total_order;
        Alcotest.test_case "set normalization" `Quick set_normalization;
        Alcotest.test_case "index_key rejects containers" `Quick index_key_rejects_containers;
        Alcotest.test_case "encoders keep their bytes" `Quick golden_bytes;
        Alcotest.test_case "set union and difference by merge" `Quick set_merges;
      ] );
    Tutil.qsuite "value.props"
      [
        prop_roundtrip;
        prop_compare_antisym;
        prop_compare_trans;
        prop_index_key_order;
        prop_numeric_keys;
        prop_rendering_identity;
      ];
  ]
