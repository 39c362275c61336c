(* LRU, PRNG and order-preserving key encodings. *)

module Lru = Ode_util.Lru
module Prng = Ode_util.Prng
module Key = Ode_util.Key

(* -- lru -------------------------------------------------------------- *)

let lru_basic () =
  let t = Lru.create 4 in
  Lru.add t 1 "a";
  Lru.add t 2 "b";
  Lru.add t 3 "c";
  Tutil.check_int "len" 3 (Lru.length t);
  Alcotest.(check (option string)) "find" (Some "a") (Lru.find t 1);
  Alcotest.(check (option string)) "miss" None (Lru.find t 9)

let lru_eviction_order () =
  let t = Lru.create 3 in
  Lru.add t 1 "a";
  Lru.add t 2 "b";
  Lru.add t 3 "c";
  (* Touch 1 so 2 becomes the LRU. *)
  ignore (Lru.find t 1);
  (match Lru.evict t (fun _ _ -> true) with
  | Some (k, _) -> Tutil.check_int "evicts LRU" 2 k
  | None -> Alcotest.fail "nothing evicted");
  (* Predicate can skip entries. *)
  match Lru.evict t (fun k _ -> k <> 3) with
  | Some (k, _) -> Tutil.check_int "skips pinned" 1 k
  | None -> Alcotest.fail "nothing evicted"

let lru_replace_refreshes () =
  let t = Lru.create 2 in
  Lru.add t 1 "a";
  Lru.add t 2 "b";
  Lru.add t 1 "a2";
  (match Lru.evict t (fun _ _ -> true) with
  | Some (k, _) -> Tutil.check_int "2 is LRU after 1 re-add" 2 k
  | None -> Alcotest.fail "nothing evicted");
  Alcotest.(check (option string)) "value replaced" (Some "a2") (Lru.find t 1)

let lru_iter_order () =
  let t = Lru.create 8 in
  List.iter (fun k -> Lru.add t k (string_of_int k)) [ 5; 6; 7 ];
  ignore (Lru.find t 5);
  let order = ref [] in
  Lru.iter t (fun k _ -> order := k :: !order);
  Alcotest.(check (list int)) "LRU to MRU" [ 6; 7; 5 ] (List.rev !order)

(* The table grows with the entries, whatever the capacity, and a hit
   still allocates nothing once it has grown. *)
let lru_grows_with_use () =
  let t = ref (Lru.create 0) in
  let created = Tutil.allocated_words (fun () -> t := Lru.create 65_536) in
  if created > 64. then
    Alcotest.failf "an empty LRU of capacity 65536 allocated %.0f words" created;
  let t = !t in
  Tutil.check_int "capacity" 65_536 (Lru.capacity t);
  for k = 1 to 5000 do
    Lru.add t k k
  done;
  Tutil.check_int "length" 5000 (Lru.length t);
  let sum = ref 0 in
  let hits =
    Tutil.allocated_words (fun () ->
        for k = 1 to 5000 do
          sum := !sum + Lru.get t k
        done)
  in
  Tutil.check_int "every hit found" (5000 * 5001 / 2) !sum;
  if hits > 16. then Alcotest.failf "5000 hits allocated %.0f words" hits

(* -- prng ------------------------------------------------------------- *)

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Tutil.check_bool "same stream" true (Prng.next a = Prng.next b)
  done

let prng_int_range () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    Tutil.check_bool "in range" true (v >= 0 && v < 17)
  done

let prng_shuffle_permutes () =
  let r = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted;
  Tutil.check_bool "actually shuffled" true (arr <> Array.init 50 Fun.id)

let prng_float_range () =
  let r = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.float r 2.5 in
    Tutil.check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

(* The first 1,000 draws of [int], [float] and [string] for seeds 0, 1 and
   7, each from a fresh generator, as MD5 digests of their printed values:
   workloads, torture runs and fuzz inputs are all derived from these
   streams, so a change to any of them changes every seeded input. *)
let prng_golden_stream seed =
  let b = Buffer.create 65536 in
  let r = Prng.create seed in
  for _ = 1 to 1000 do
    Printf.bprintf b "%d," (Prng.int r max_int)
  done;
  let r = Prng.create seed in
  for _ = 1 to 1000 do
    Printf.bprintf b "%h," (Prng.float r 1.0)
  done;
  let r = Prng.create seed in
  for i = 1 to 1000 do
    Printf.bprintf b "%s," (Prng.string r (i mod 13))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let prng_golden () =
  let r = Prng.create 1 in
  Tutil.check_int "first int of seed 1" 2612804094800205616 (Prng.int r max_int);
  List.iter
    (fun (seed, digest) ->
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) digest (prng_golden_stream seed))
    [ (0, "60e9ef6a3685a6bbf678e439230767e2"); (1, "03e50aa869309680329c456adea464aa"); (7, "3b640b84017bc56b90b7b78204fe1a61") ]

(* A draw boxes nothing: an int or a bool allocates no word, and a string
   only itself (a 200-byte string is 27 words). *)
let prng_allocates_nothing () =
  let r = Prng.create 5 in
  let sum = ref 0 in
  let ints = Tutil.allocated_words (fun () -> for _ = 1 to 10_000 do sum := !sum + Prng.int r 1000 done) in
  let bools =
    Tutil.allocated_words (fun () -> for _ = 1 to 10_000 do if Prng.bool r then incr sum done)
  in
  let s = ref "" in
  let strings = Tutil.allocated_words (fun () -> for _ = 1 to 100 do s := Prng.string r 200 done) in
  Tutil.check_bool "drew something" true (!sum > 0 && String.length !s = 200);
  if ints > 0. then Alcotest.failf "10,000 Prng.int allocated %.0f words" ints;
  if bools > 0. then Alcotest.failf "10,000 Prng.bool allocated %.0f words" bools;
  if strings > 100. *. 28. then Alcotest.failf "100 Prng.string 200 allocated %.0f words" strings

(* -- keys ------------------------------------------------------------- *)

(* Naturals drawn across every width, from one byte to max_int. *)
let nat = QCheck.(map (fun (w, n) -> n lsr w) (pair (int_bound 62) (int_bound max_int)))

let prop_nat_order =
  QCheck.Test.make ~name:"nat keys preserve order" ~count:1000
    QCheck.(pair nat nat)
    (fun (a, b) -> compare (Key.of_nat a) (Key.of_nat b) = compare a b)

(* Field by field on concatenations holds only if no encoding is a proper
   prefix of another. *)
let prop_nat_prefix_free =
  QCheck.Test.make ~name:"nat keys compare field by field" ~count:1000
    QCheck.(pair (pair nat nat) (pair nat nat))
    (fun ((a1, a2), (b1, b2)) ->
      compare (Key.of_nat a1 ^ Key.of_nat a2) (Key.of_nat b1 ^ Key.of_nat b2)
      = compare (a1, a2) (b1, b2))

let prop_nat_roundtrip =
  QCheck.Test.make ~name:"nat_at round-trips of_nat" ~count:1000
    QCheck.(triple string nat string)
    (fun (pre, n, post) ->
      let k = pre ^ Key.of_nat n in
      Key.nat_at (k ^ post) (String.length pre) = (n, String.length k))

let prop_nat_negative =
  QCheck.Test.make ~name:"of_nat rejects negatives" ~count:200
    QCheck.(map (fun n -> -1 - n) (int_bound max_int))
    (fun n -> match Key.of_nat n with _ -> false | exception Invalid_argument _ -> true)

let prop_float_order =
  let finite = QCheck.float in
  QCheck.Test.make ~name:"float keys preserve order" ~count:1000
    QCheck.(pair finite finite)
    (fun (a, b) ->
      QCheck.assume (Float.is_finite a && Float.is_finite b);
      compare (Key.of_number a) (Key.of_number b) = compare a b)

let prop_string_order =
  QCheck.Test.make ~name:"string keys preserve order" ~count:1000
    QCheck.(pair string string)
    (fun (a, b) -> compare (Key.of_string a) (Key.of_string b) = compare a b)

let prop_composite_boundary =
  (* A component never bleeds into its neighbour: ("ab","c") vs ("a","bc"). *)
  QCheck.Test.make ~name:"composite keys compare per component" ~count:1000
    QCheck.(pair (pair string string) (pair string string))
    (fun ((a1, a2), (b1, b2)) ->
      let ka = Key.concat [ Key.of_string a1; Key.of_string a2 ] in
      let kb = Key.concat [ Key.of_string b1; Key.of_string b2 ] in
      compare ka kb = compare (a1, a2) (b1, b2))

let prop_succ_prefix =
  QCheck.Test.make ~name:"succ_prefix bounds all extensions" ~count:1000
    QCheck.(pair string (string_of_size (QCheck.Gen.return 3)))
    (fun (p, ext) ->
      match Key.succ_prefix p with
      | None -> String.for_all (fun c -> c = '\255') p
      | Some s -> compare (p ^ ext) s < 0 && compare p s < 0)

(* [Key.sort_by] against a stable comparison sort, over keys from a
   small alphabet with zero and 0xff bytes, of lengths around the seven
   bytes it radix-sorts, many sharing a longer prefix so that their
   heads tie; each key carries its position, so stability shows. *)
let prop_sort_by =
  let byte = QCheck.Gen.oneofl [ '\000'; '\001'; 'a'; '\255' ] in
  let key =
    QCheck.Gen.(
      map2
        (fun shared tail -> if shared then "key\000pre" ^ tail else tail)
        bool
        (string_size ~gen:byte (int_bound 12)))
  in
  QCheck.Test.make ~name:"sort_by is a stable byte-order sort" ~count:500
    (QCheck.make ~print:QCheck.Print.(list string) QCheck.Gen.(list_size (int_bound 300) key))
    (fun keys ->
      let a = Array.of_list (List.mapi (fun i k -> (k, i)) keys) in
      Array.to_list (Key.sort_by fst a) = List.stable_sort (fun (x, _) (y, _) -> String.compare x y) (Array.to_list a))

let neg_float_order () =
  Tutil.check_bool "-1.0 < 1.0" true (compare (Key.of_number (-1.0)) (Key.of_number 1.0) < 0);
  Tutil.check_bool "-2.0 < -1.0" true (compare (Key.of_number (-2.0)) (Key.of_number (-1.0)) < 0);
  Tutil.check_bool "0.0 < 1e300" true (compare (Key.of_number 0.0) (Key.of_number 1e300) < 0)

let suite =
  [
    ( "lru",
      [
        Alcotest.test_case "basic ops" `Quick lru_basic;
        Alcotest.test_case "eviction order" `Quick lru_eviction_order;
        Alcotest.test_case "replace refreshes recency" `Quick lru_replace_refreshes;
        Alcotest.test_case "iter order" `Quick lru_iter_order;
        Alcotest.test_case "table grows with use" `Quick lru_grows_with_use;
      ] );
    ( "prng",
      [
        Alcotest.test_case "deterministic" `Quick prng_deterministic;
        Alcotest.test_case "int range" `Quick prng_int_range;
        Alcotest.test_case "shuffle permutes" `Quick prng_shuffle_permutes;
        Alcotest.test_case "float range" `Quick prng_float_range;
        Alcotest.test_case "golden streams" `Quick prng_golden;
        Alcotest.test_case "draws allocate nothing" `Quick prng_allocates_nothing;
      ] );
    ("keys", [ Alcotest.test_case "negative floats order" `Quick neg_float_order ]);
    Tutil.qsuite "keys.props"
      [
        prop_nat_order;
        prop_nat_prefix_free;
        prop_nat_roundtrip;
        prop_nat_negative;
        prop_sort_by;
        prop_float_order;
        prop_string_order;
        prop_composite_boundary;
        prop_succ_prefix;
      ];
  ]
