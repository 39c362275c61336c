module Bptree = Ode_index.Bptree
module Disk = Ode_storage.Disk
module Pool = Ode_storage.Buffer_pool

let mk () = Bptree.attach (Pool.create ~capacity:128 (Disk.in_memory ()))
let assert_ok t = match Bptree.check t with Ok () -> () | Error { msg = e; _ } -> Alcotest.fail e

(* A sorted batch of puts alone, and a one-key delete batch that says
   whether the key was present. *)
let put_sorted t kvs = Bptree.apply_sorted t (Array.map (fun (k, v) -> (k, Some v)) kvs)

let remove t k =
  let n = Bptree.count t in
  Bptree.apply_sorted t [| (k, None) |];
  Bptree.count t < n

let basic () =
  let t = mk () in
  Bptree.insert t "b" "2";
  Bptree.insert t "a" "1";
  Bptree.insert t "c" "3";
  Alcotest.(check (option string)) "find a" (Some "1") (Bptree.find t "a");
  Alcotest.(check (option string)) "find c" (Some "3") (Bptree.find t "c");
  Alcotest.(check (option string)) "miss" None (Bptree.find t "zz");
  Tutil.check_int "count" 3 (Bptree.count t);
  assert_ok t

let replace () =
  let t = mk () in
  Bptree.insert t "k" "old";
  Bptree.insert t "k" "new";
  Alcotest.(check (option string)) "replaced" (Some "new") (Bptree.find t "k");
  Tutil.check_int "count unchanged" 1 (Bptree.count t)

let delete () =
  let t = mk () in
  Bptree.insert t "x" "1";
  Tutil.check_bool "delete hit" true (remove t "x");
  Tutil.check_bool "delete miss" false (remove t "x");
  Alcotest.(check (option string)) "gone" None (Bptree.find t "x");
  Tutil.check_int "count" 0 (Bptree.count t)

let key k = Printf.sprintf "key-%06d" k

(* The number of cases of each model property; CI raises it. *)
let props_count default =
  match Sys.getenv_opt "BPTREE_PROPS_COUNT" with Some n -> int_of_string n | None -> default

let many_keys_split () =
  let t = mk () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key i) (string_of_int (i * 7))
  done;
  Tutil.check_bool "tree grew" true (Bptree.height t >= 2);
  Tutil.check_int "count" n (Bptree.count t);
  for i = 0 to n - 1 do
    if Bptree.find t (key i) <> Some (string_of_int (i * 7)) then
      Alcotest.failf "lost key %d" i
  done;
  assert_ok t

let range_scan () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) ""
  done;
  let got = ref [] in
  Bptree.iter_range t ~lo:(key 10) ~hi:(key 20) (fun k _ ->
      got := k :: !got;
      true);
  Alcotest.(check int) "half-open range" 10 (List.length !got);
  Tutil.check_string "first" (key 10) (List.nth (List.rev !got) 0);
  let got2 = ref 0 in
  Bptree.iter_range t ~lo:(key 10) ~hi:(key 20) ~inclusive_hi:true (fun _ _ ->
      incr got2;
      true);
  Tutil.check_int "inclusive range" 11 !got2

let range_early_stop () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) ""
  done;
  let n = ref 0 in
  Bptree.iter_range t (fun _ _ ->
      incr n;
      !n < 5);
  Tutil.check_int "stopped early" 5 !n

let prefix_scan () =
  let t = mk () in
  List.iter (fun k -> Bptree.insert t k "") [ "ap"; "apple"; "apricot"; "banana"; "ba" ];
  let got = ref [] in
  Bptree.iter_prefix t "ap" (fun k _ ->
      got := k :: !got;
      true);
  Tutil.check_string_list "ap-prefixed" [ "ap"; "apple"; "apricot" ] (List.rev !got)

let persistence () =
  let dir = Tutil.temp_dir "bpt" in
  let path = Filename.concat dir "t.bpt" in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:64 d) in
  for i = 0 to 999 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  Bptree.flush t;
  Disk.close d;
  let d2 = Disk.open_file path in
  let t2 = Bptree.attach (Pool.create ~capacity:64 d2) in
  Tutil.check_int "count persisted" 1000 (Bptree.count t2);
  Alcotest.(check (option string)) "value persisted" (Some "777") (Bptree.find t2 (key 777));
  assert_ok t2;
  Disk.close d2

let large_entries_rejected () =
  let t = mk () in
  match Bptree.insert t (String.make 2000 'k') "v" with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let reverse_range () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  let got = ref [] in
  Bptree.iter_range_rev t ~lo:(key 10) ~hi:(key 20) (fun k _ ->
      got := k :: !got;
      true);
  Alcotest.(check (list string)) "reverse of forward"
    (List.init 10 (fun i -> key (10 + i)))
    !got;
  (* Early stop from the top. *)
  let n = ref 0 in
  Bptree.iter_range_rev t (fun _ _ ->
      incr n;
      !n < 3);
  Tutil.check_int "stopped early" 3 !n

let cursor_basics () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  (* Seek lands on the first entry >= lo even when lo is absent from the tree. *)
  ignore (remove t (key 10));
  let cur = Bptree.cursor t ~lo:(key 10) ~hi:(key 14) () in
  let got = ref [] in
  let rec drain () =
    match Bptree.cursor_next cur with
    | Some (k, _) ->
        got := k :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  Tutil.check_string_list "half-open, seek past hole" [ key 11; key 12; key 13 ] (List.rev !got);
  Tutil.check_bool "exhausted stays exhausted" true (Bptree.cursor_next cur = None);
  let cur2 = Bptree.cursor t ~lo:(key 95) () in
  let n = ref 0 in
  while Bptree.cursor_next cur2 <> None do
    incr n
  done;
  Tutil.check_int "open hi runs to the end" 5 !n

let cursor_prefix () =
  let t = mk () in
  List.iter (fun k -> Bptree.insert t k "") [ "ap"; "apple"; "apricot"; "banana"; "ba" ];
  let cur = Bptree.cursor_prefix t "ap" in
  let got = ref [] in
  let rec drain () =
    match Bptree.cursor_next cur with
    | Some (k, _) ->
        got := k :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  Tutil.check_string_list "ap-prefixed" [ "ap"; "apple"; "apricot" ] (List.rev !got)

let cursor_early_exit_pages () =
  let t = mk () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  Tutil.check_bool "multi-leaf tree" true (Bptree.height t >= 2);
  let pages_during fn =
    let before = Ode_util.Stats.(get (snapshot ()) "cursor_pages_read") in
    fn ();
    Ode_util.Stats.(get (snapshot ()) "cursor_pages_read") - before
  in
  let full =
    pages_during (fun () ->
        let cur = Bptree.cursor t () in
        while Bptree.cursor_next cur <> None do
          ()
        done)
  in
  let early =
    pages_during (fun () ->
        let cur = Bptree.cursor t () in
        ignore (Bptree.cursor_next cur))
  in
  Tutil.check_bool "full scan reads many leaves" true (full > 2);
  Tutil.check_int "abandoned cursor reads one leaf" 1 early

let prop_cursor_matches_iter_range =
  QCheck.Test.make ~name:"cursor = iter_range" ~count:(props_count 100)
    QCheck.(triple (list (int_bound 300)) (int_bound 300) (int_bound 300))
    (fun (ks, a, b) ->
      let lo_i = min a b and hi_i = max a b in
      let t = mk () in
      List.iter (fun k -> Bptree.insert t (key k) (string_of_int k)) ks;
      let lo = key lo_i and hi = key hi_i in
      let via_iter = ref [] in
      Bptree.iter_range t ~lo ~hi (fun k v -> via_iter := (k, v) :: !via_iter; true);
      let cur = Bptree.cursor t ~lo ~hi () in
      let via_cursor = ref [] in
      let rec drain () =
        match Bptree.cursor_next cur with
        | Some kv ->
            via_cursor := kv :: !via_cursor;
            drain ()
        | None -> ()
      in
      drain ();
      !via_cursor = !via_iter)

let prop_reverse_matches_forward =
  QCheck.Test.make ~name:"iter_range_rev = rev iter_range" ~count:(props_count 100)
    QCheck.(triple (list (int_bound 300)) (int_bound 300) (int_bound 300))
    (fun (ks, a, b) ->
      let lo_i = min a b and hi_i = max a b in
      let t = mk () in
      List.iter (fun k -> Bptree.insert t (key k) "") ks;
      let lo = key lo_i and hi = key hi_i in
      let fwd = ref [] and bwd = ref [] in
      Bptree.iter_range t ~lo ~hi (fun k _ -> fwd := k :: !fwd; true);
      Bptree.iter_range_rev t ~lo ~hi (fun k _ -> bwd := k :: !bwd; true);
      !fwd = List.rev !bwd)

(* Keys that stress the node prefixes: the plain numbered keys; keys
   behind a long shared prefix, so whole subtrees share it; keys that are
   prefixes of one another, down to one byte; and keys of 0x00, 0x01, 0xFE
   and 0xFF bytes, the ends of the byte order. *)
let adversarial_key =
  let long = String.init 300 (fun i -> Char.chr (32 + (i * 7 mod 90))) in
  QCheck.Gen.(
    frequency
      [
        (3, map key (int_bound 499));
        ( 3,
          map2
            (fun n tail -> String.sub long 0 n ^ tail)
            (int_bound 300)
            (string_size ~gen:(oneofl [ '\000'; '\001'; 'a'; '\254'; '\255' ]) (int_range 1 3)) );
        (2, map (fun n -> String.sub long 0 (1 + n)) (int_bound 299));
        (1, string_size ~gen:(oneofl [ '\000'; '\001'; '\254'; '\255' ]) (int_range 1 6));
      ])

let ops_of keygen =
  QCheck.Gen.(
    list_size (int_bound 400)
      (frequency
         [ (6, map2 (fun k v -> `Insert (k, v mod 1000)) keygen nat); (3, map (fun k -> `Delete k) keygen) ]))

(* Apply [ops] to [t], mirrored in an association list; [value] renders the
   generated integer for its key. Fails the property on a delete-result
   mismatch. *)
let apply_ops ?(value = fun _ v -> string_of_int v) t ops =
  List.fold_left
    (fun model op ->
      match op with
      | `Insert (ks, v) ->
          let vs = value ks v in
          Bptree.insert t ks vs;
          (ks, vs) :: List.remove_assoc ks model
      | `Delete ks ->
          let present = List.mem_assoc ks model in
          if present <> remove t ks then QCheck.Test.fail_report "delete result mismatch";
          List.remove_assoc ks model)
    [] ops

(* One value in 16 fills its entry to [Bptree.max_entry]. *)
let wide_value ks v =
  if v mod 16 = 0 then String.make (Bptree.max_entry - String.length ks) 'w' else string_of_int v

let adversarial_ops = QCheck.make ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops)) (ops_of adversarial_key)

(* Contents and order both match the model, and the structure checks. *)
let matches_model t model =
  (match Bptree.check t with Ok () -> () | Error { msg = e; _ } -> QCheck.Test.fail_report e);
  let scan = ref [] in
  Bptree.iter_range t (fun k v ->
      scan := (k, v) :: !scan;
      true);
  let expected = List.sort compare model in
  List.rev !scan = expected && Bptree.count t = List.length expected

let prop_model =
  QCheck.Test.make ~name:"bptree matches Map" ~count:(props_count 60) adversarial_ops (fun ops ->
      let t = mk () in
      matches_model t (apply_ops ~value:wide_value t ops))

(* -- file-backed trees under a tiny pool ----------------------------------------- *)

let tiny_pool = 4
let file_tree () = Filename.concat (Tutil.temp_dir "bpt") "t.bpt"

(* Values of varied length, so leaves split at varied entry counts. *)
let long_value _ v = string_of_int v ^ String.make (v mod 97) '.'

(* [wide_value]'s entries and [long_value]'s, in turn. *)
let mixed_value ks v = if v mod 2 = 0 then wide_value ks v else long_value ks v

(* Written through a 4-frame pool, flushed, then reopened on a fresh pool,
   so every read comes from page bytes read back from the file. *)
let prop_reopen_matches_model =
  QCheck.Test.make ~name:"file-backed tree reopens to the model" ~count:(props_count 30) adversarial_ops
    (fun ops ->
      let path = file_tree () in
      let d = Disk.open_file path in
      let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
      let model = apply_ops ~value:mixed_value t ops in
      Bptree.flush t;
      Disk.close d;
      let d = Disk.open_file path in
      Fun.protect
        ~finally:(fun () -> Disk.close d)
        (fun () -> matches_model (Bptree.attach (Pool.create ~capacity:tiny_pool d)) model))

module Smap = Map.Make (String)

(* Ascending key families ahead of a fixed block of larger keys, as a
   store's new objects land ahead of its versions: each [`Family (f, n)]
   inserts family [f]'s next [n] keys in one batch. Among them, random
   keys anywhere, deletes of random keys and of a family's latest key
   (which leaves the next batch nothing to land directly after), and
   reopens, which start the tree with no memory of its last runs. *)
let family_tags = [| "D"; "H"; "T" |]

let family_ops =
  QCheck.Gen.(
    list_size (int_bound 300)
      (frequency
         [
           (8, map2 (fun f n -> `Family (f, 1 + n)) (int_bound 2) (int_bound 5));
           (3, map2 (fun t n -> `Random (t, n)) (oneofl [ "D"; "H"; "T"; "V"; "Z" ]) (int_bound 99_999));
           (1, map2 (fun t n -> `Delete (t, n)) (oneofl [ "D"; "H"; "T"; "V" ]) (int_bound 99_999));
           (1, map (fun f -> `Delete_latest f) (int_bound 2));
           (1, return `Reopen);
         ]))

(* Values of 1 to 96 bytes, and one in 20 as wide as an entry may be. *)
let family_value k n =
  if n mod 20 = 0 then String.make (Bptree.max_entry - String.length k) 'w' else String.make (1 + (n mod 96)) 'v'

let prop_families =
  QCheck.Test.make ~name:"families ahead of a block match Map" ~count:(props_count 30)
    (QCheck.make ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops)) family_ops)
    (fun ops ->
      let path = file_tree () in
      let d = ref (Disk.open_file path) in
      let t = ref (Bptree.attach (Pool.create ~capacity:16 !d)) in
      let block = Array.init 300 (fun i -> (Printf.sprintf "V%05d" (i * 300), String.make (1 + (i mod 40)) 'b')) in
      put_sorted !t block;
      let model = ref (Array.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty block) in
      let next = Array.make (Array.length family_tags) 0 in
      let put kvs =
        put_sorted !t kvs;
        Array.iter (fun (k, v) -> model := Smap.add k v !model) kvs
      in
      let delete k =
        if Smap.mem k !model <> remove !t k then QCheck.Test.fail_reportf "delete %S: result mismatch" k;
        model := Smap.remove k !model
      in
      let family_key f i = Printf.sprintf "%s%05d" family_tags.(f) i in
      let whole () = matches_model !t (Smap.bindings !model) in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | `Family (f, n) ->
                put
                  (Array.init n (fun j ->
                       let k = family_key f (next.(f) + j) in
                       (k, family_value k (next.(f) + j))));
                next.(f) <- next.(f) + n;
                true
            | `Random (tag, n) ->
                let k = Printf.sprintf "%s%05d" tag n in
                put [| (k, family_value k n) |];
                true
            | `Delete (tag, n) ->
                delete (Printf.sprintf "%s%05d" tag n);
                true
            | `Delete_latest f ->
                if next.(f) > 0 then delete (family_key f (next.(f) - 1));
                true
            | `Reopen ->
                Bptree.flush !t;
                Disk.close !d;
                d := Disk.open_file path;
                t := Bptree.attach (Pool.create ~capacity:16 !d);
                whole ())
          ops
      in
      let ok = ok && whole () in
      Disk.close !d;
      ok)

(* A batch: keys out of 2,000 to put (with a [mixed_value]) or delete,
   or a range of them deleted whole, with, when it [refill]s, a put beside
   every fourth. *)
let mixed_batch =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun ops -> `Ops ops) (list_size (int_bound 80) (pair (int_bound 1999) (opt ~ratio:0.6 nat))));
        (1, map3 (fun lo n refill -> `Range (lo, n, refill)) (int_bound 1999) (int_bound 400) bool);
      ])

let batch_map = function
  | `Ops ops ->
      List.fold_left
        (fun b (i, v) -> Smap.add (key i) (Option.map (mixed_value (key i)) v) b)
        Smap.empty ops
  | `Range (lo, n, refill) ->
      let b = ref Smap.empty in
      for i = lo to min 1999 (lo + n) do
        b := Smap.add (key i) None !b;
        if refill && i mod 4 = 0 then b := Smap.add (key i ^ "+") (Some "r") !b
      done;
      !b

(* Sorted batches of puts and deletes against a Map, after a first batch
   that puts every even key: deletes of absent keys, batches of deletes
   alone, and whole ranges deleted, which empty leaves (wide values keep
   a leaf to a few entries), some with puts among the deleted keys. After
   every batch the tree matches the model and passes [check]. *)
let prop_mixed_batches =
  QCheck.Test.make ~name:"mixed put and delete batches match Map" ~count:(props_count 30)
    (QCheck.make
       ~print:(fun bs -> Printf.sprintf "%d batches" (List.length bs))
       QCheck.Gen.(list_size (int_bound 40) mixed_batch))
    (fun batches ->
      let t = mk () in
      let first = `Ops (List.init 1000 (fun i -> (2 * i, Some i))) in
      let model = ref Smap.empty in
      List.for_all
        (fun batch ->
          let b = batch_map batch in
          Bptree.apply_sorted t (Array.of_list (Smap.bindings b));
          model := Smap.fold (fun k op m -> match op with Some v -> Smap.add k v m | None -> Smap.remove k m) b !model;
          matches_model t (Smap.bindings !model))
        (first :: batches))

(* Keys inserted by the pressure-flush regression test; nightly CI raises it. *)
let torture_keys =
  match Sys.getenv_opt "BPTREE_TORTURE_KEYS" with Some n -> int_of_string n | None -> 400

(* A crash may come between any two inserts, and the file then holds exactly
   what pool-pressure write-back put there. Reopen a copy of the file after
   every insert: the tree on it must be whole. A pressure flush that fired
   inside a split would persist the left half already cut short while the
   parent, root and header did not yet route to the right half. *)
let pressure_flush_never_splits_half () =
  let path = file_tree () in
  let copy = path ^ ".copy" in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
  let rng = Random.State.make [| 36 |] in
  let most_persisted = ref 0 in
  (* Random keys can repeat (about twice in 20,000), and an insert of a
     present key replaces it. *)
  let distinct = Hashtbl.create torture_keys in
  for i = 1 to torture_keys do
    let k = Printf.sprintf "k%08d" (Random.State.int rng 100_000_000) in
    Hashtbl.replace distinct k ();
    Bptree.insert t k (String.make (100 + Random.State.int rng 300) 'v');
    Tutil.copy_file path copy;
    let dc = Disk.open_file copy in
    let c = Bptree.attach (Pool.create ~capacity:tiny_pool dc) in
    (match Bptree.check c with
    | Ok () -> ()
    | Error { msg = e; _ } -> Alcotest.failf "file after insert %d: %s" i e);
    let reachable = ref 0 in
    Bptree.iter_range c (fun _ _ ->
        incr reachable;
        true);
    Tutil.check_int (Printf.sprintf "file after insert %d: header count = leaf chain" i)
      (Bptree.count c) !reachable;
    most_persisted := max !most_persisted !reachable;
    Disk.close dc
  done;
  Tutil.check_bool "pressure flushes reached the file" true (!most_persisted > 0);
  (* One run past every key: the last leaf is cut into many pieces, each
     written once, and the pieces past the first are on fresh pages that
     only the leaf's parent, rewritten or split (or a new root above a
     leaf root), can route a search to. Neither depends on the tree's
     height, so this holds at any [torture_keys]. *)
  let run =
    Array.init 400 (fun i -> (Printf.sprintf "z%05d%s" i (String.make 200 'k'), String.make 200 'v'))
  in
  let leaf_writes = Ode_util.Stats.(get (snapshot ()) "bptree.leaf_writes") in
  put_sorted t run;
  let pieces = Ode_util.Stats.(get (snapshot ()) "bptree.leaf_writes") - leaf_writes in
  Tutil.check_bool "the run cut its leaf into three or more pieces" true (pieces >= 3);
  Tutil.check_bool "the leaf's parent routes a search to every piece" true
    (Array.for_all (fun (k, _) -> Bptree.find t k <> None) run);
  Tutil.copy_file path copy;
  let dc = Disk.open_file copy in
  let c = Bptree.attach (Pool.create ~capacity:tiny_pool dc) in
  (match Bptree.check c with Ok () -> () | Error { msg = e; _ } -> Alcotest.failf "file after the run: %s" e);
  Tutil.check_int "file after the run: every key"
    (Hashtbl.length distinct + Array.length run)
    (Bptree.count c);
  Disk.close dc;
  Disk.close d

(* -- batched inserts ------------------------------------------------------------- *)

module SM = Map.Make (String)

let drain cur =
  let rec go acc = match Bptree.cursor_next cur with Some kv -> go (kv :: acc) | None -> List.rev acc in
  go []

(* Seeded batches of 1, 2-50 and 5,000 puts, each sequential (past every
   key so far), random, or replacing existing keys, with up to 30 deletes
   of present keys and a few of absent ones riding in the same batch.
   After every batch the tree matches a Map model by find, count, cursor
   order and [check], and again after a reopen. A cursor opened before
   each batch keeps its snapshot. Last, one batch deletes every key below
   the sequential ones, emptying their leaves, and puts a key beside each
   of those in a tenth of their range, so some of its runs empty a leaf
   and fill it again. *)
let apply_sorted_model () =
  let path = file_tree () in
  let rng = Random.State.make [| 14 |] in
  let open_tree () =
    let d = Disk.open_file path in
    (d, Bptree.attach (Pool.create ~capacity:1024 d))
  in
  let d = ref (Disk.open_file path) in
  let t = ref (Bptree.attach (Pool.create ~capacity:1024 !d)) in
  let model = ref SM.empty in
  let seq = ref 0 in
  let value () = String.make (Random.State.int rng 120) (Char.chr (97 + Random.State.int rng 26)) in
  let check_tree what =
    (match Bptree.check !t with Ok () -> () | Error { msg = e; _ } -> Alcotest.failf "%s: %s" what e);
    Tutil.check_int (what ^ ": count") (SM.cardinal !model) (Bptree.count !t);
    SM.iter
      (fun k v -> if Bptree.find !t k <> Some v then Alcotest.failf "%s: find %s" what k)
      !model;
    if drain (Bptree.cursor !t ()) <> SM.bindings !model then Alcotest.failf "%s: cursor order" what
  in
  let pick () =
    let keys = Array.of_list (List.map fst (SM.bindings !model)) in
    fun () -> keys.(Random.State.int rng (Array.length keys))
  in
  let batch size kind =
    let existing = pick () in
    let key () =
      match kind with
      | `Sequential ->
          incr seq;
          Printf.sprintf "s%08d" !seq
      | `Random -> Printf.sprintf "r%08d" (Random.State.int rng 100_000_000)
      | `Replace -> existing ()
    in
    let rec fill b = if SM.cardinal b >= size then b else fill (SM.add (key ()) (Some (value ())) b) in
    let b = fill SM.empty in
    let deletes = if SM.is_empty !model then 0 else Random.State.int rng 30 in
    let b = ref b in
    for _ = 1 to deletes do
      let k = existing () in
      if not (SM.mem k !b) then b := SM.add k None !b
    done;
    for _ = 1 to Random.State.int rng 4 do
      b := SM.add (Printf.sprintf "r%08dx" (Random.State.int rng 100_000_000)) None !b
    done;
    !b
  in
  let reopen what =
    Bptree.flush !t;
    Disk.close !d;
    let d', t' = open_tree () in
    d := d';
    t := t';
    check_tree (what ^ " after a reopen")
  in
  let apply what b =
    (* The cursor has read its first entry, so it holds that leaf. *)
    let cur = Bptree.cursor !t () in
    let first = Bptree.cursor_next cur in
    let before = !model in
    Bptree.apply_sorted !t (Array.of_list (SM.bindings b));
    model := SM.fold (fun k op m -> match op with Some v -> SM.add k v m | None -> SM.remove k m) b !model;
    (match first with
    | None ->
        Tutil.check_bool (what ^ ": empty cursor stays empty") true (Bptree.cursor_next cur = None)
    | Some ((k0, _) as e0) ->
        let seen = e0 :: drain cur in
        let keys = List.map fst seen in
        Tutil.check_bool (what ^ ": snapshot cursor ascends") true (List.sort_uniq compare keys = keys);
        List.iter
          (fun (k, v) ->
            if SM.find_opt k before <> Some v && SM.find_opt k b <> Some (Some v) then
              Alcotest.failf "%s: snapshot cursor yields unknown entry %s" what k)
          seen;
        let yielded = List.fold_left (fun m k -> SM.add k () m) SM.empty keys in
        SM.iter
          (fun k _ ->
            if k >= k0 && (not (SM.mem k yielded)) && SM.find_opt k b <> Some None then
              Alcotest.failf "%s: snapshot cursor lost %s" what k)
          before);
    check_tree what;
    reopen what
  in
  let sizes = [ 1; 2 + Random.State.int rng 49; 5000 ] in
  List.iteri
    (fun round (size, kind) ->
      let what =
        Printf.sprintf "batch %d (%d %s keys)" round size
          (match kind with `Sequential -> "sequential" | `Random -> "random" | `Replace -> "existing")
      in
      apply what (batch size kind))
    (List.concat_map
       (fun kind -> List.map (fun size -> (size, kind)) sizes)
       [ `Sequential; `Random; `Replace ]);
  let r = SM.filter (fun k _ -> k < "s") !model in
  Tutil.check_bool "keys below the sequential ones fill leaves" true (SM.cardinal r > 1000);
  let pages = Bptree.page_count !t in
  apply "deletes that empty leaves"
    (SM.fold
       (fun k _ b -> SM.add (k ^ "+") (Some "") b)
       (SM.filter (fun k _ -> k.[1] = '5') r)
       (SM.map (fun _ -> None) r));
  Tutil.check_int "deletes free no page" pages (Bptree.page_count !t);
  Disk.close !d

(* A cursor inside a one-leaf tree keeps that leaf's entries while a batch
   cuts the leaf into many pieces. *)
let cursor_keeps_leaf_snapshot () =
  let t = mk () in
  let small = Array.init 20 (fun i -> (key (i * 1000), "old")) in
  put_sorted t small;
  Tutil.check_int "one leaf" 1 (Bptree.height t);
  let cur = Bptree.cursor t () in
  put_sorted t (Array.init 5000 (fun i -> (key ((i * 4) + 1), String.make 50 'n')));
  Tutil.check_bool "tree grew" true (Bptree.height t >= 2);
  Tutil.check_bool "cursor yields the leaf as it was" true (drain cur = Array.to_list small);
  assert_ok t

let apply_sorted_rejects () =
  let t = mk () in
  let rejects kvs =
    match put_sorted t kvs with () -> false | exception Invalid_argument _ -> true
  in
  Tutil.check_bool "descending" true (rejects [| ("b", ""); ("a", "") |]);
  Tutil.check_bool "repeated" true (rejects [| ("a", ""); ("a", "") |]);
  Tutil.check_bool "oversized after a good key" true (rejects [| ("a", ""); ("b", String.make 2000 'v') |]);
  Tutil.check_int "nothing applied" 0 (Bptree.count t);
  put_sorted t [||];
  Tutil.check_int "empty batch" 0 (Bptree.count t)

(* -- on-disk format -------------------------------------------------------------- *)

(* The common prefix of a node's fences, empty when either is open. *)
let fence_prefix lo hi =
  match (lo, hi) with
  | Some a, Some b ->
      let rec go i = if i < String.length a && i < String.length b && a.[i] = b.[i] then go (i + 1) else i in
      String.sub a 0 (go 0)
  | _ -> ""

(* The ODEBPT03 node layout, written out independently of the engine: a
   page is a header (u8 kind, u16 count, u32 next leaf or child 0, u16
   top, u16 prefix length), the u16 slots, zeros up to [top], the entries
   from below the prefix down, entry 0 highest, then the key prefix, which
   ends the node region. A leaf entry is varint slen | suffix | varint
   vlen | value, an internal entry varint slen | suffix | u32 child, where
   a key is the prefix followed by the suffix. *)
module Reference = struct
  module Codec = Ode_util.Codec

  type node = Leaf of (string * string) array * int | Internal of string array * int array

  let node_end = Ode_storage.Page.data_end

  let entry f =
    let b = Buffer.create 64 in
    f b;
    Buffer.contents b

  let with_len b s =
    Codec.put_varint b (String.length s);
    Codec.put_raw b s

  (* The node's bytes [0, node_end) of its page, its keys stored past
     [prefix]. *)
  let page ~prefix node =
    let pl = String.length prefix in
    let suffix k = String.sub k pl (String.length k - pl) in
    let kind, link, entries =
      match node with
      | Leaf (es, next) ->
          (0, next, Array.map (fun (k, v) -> entry (fun b -> with_len b (suffix k); with_len b v)) es)
      | Internal (keys, children) ->
          ( 1,
            children.(0),
            Array.mapi
              (fun i k -> entry (fun b -> with_len b (suffix k); Codec.put_u32 b children.(i + 1)))
              keys )
    in
    let top = node_end - pl - Array.fold_left (fun n e -> n + String.length e) 0 entries in
    let b = Buffer.create node_end in
    Codec.put_u8 b kind;
    Codec.put_u16 b (Array.length entries);
    Codec.put_u32 b link;
    Codec.put_u16 b top;
    Codec.put_u16 b pl;
    ignore
      (Array.fold_left
         (fun off e ->
           let off = off - String.length e in
           Codec.put_u16 b off;
           off)
         (node_end - pl) entries);
    Buffer.add_string b (String.make (top - Buffer.length b) '\000');
    for i = Array.length entries - 1 downto 0 do
      Buffer.add_string b entries.(i)
    done;
    Buffer.add_string b prefix;
    Buffer.contents b

  let prefix_of data =
    let pl = Ode_storage.Bigbytes.get_uint16_le data 9 in
    Ode_storage.Bigbytes.sub_string data (node_end - pl) pl

  (* The node in a page, with whole keys. *)
  let read_node data =
    let s = Ode_storage.Bigbytes.sub_string data 0 node_end in
    let prefix = prefix_of data in
    let c = Codec.cursor s in
    let kind = Codec.get_u8 c in
    let n = Codec.get_u16 c in
    let link = Codec.get_u32 c in
    ignore (Codec.get_u16 c);
    ignore (Codec.get_u16 c);
    let slots = Array.init n (fun _ -> Codec.get_u16 c) in
    let at off = Codec.cursor ~pos:off s in
    let str c = Codec.get_raw c (Codec.get_varint c) in
    let key c = prefix ^ str c in
    if kind = 0 then
      Leaf
        ( Array.map
            (fun off ->
              let c = at off in
              let k = key c in
              (k, str c))
            slots,
          link )
    else
      let keys = Array.map (fun off -> key (at off)) slots in
      let children =
        Array.append [| link |]
          (Array.map
             (fun off ->
               let c = at off in
               ignore (str c);
               Codec.get_u32 c)
             slots)
      in
      Internal (keys, children)

  let header ~root ~count =
    let b = Buffer.create Ode_storage.Page.size in
    Codec.put_raw b "ODEBPT03";
    Codec.put_u32 b root;
    Codec.put_i64 b (Int64.of_int count);
    Buffer.add_string b (String.make (Ode_storage.Page.data_end - Buffer.length b) '\000');
    Buffer.contents b
end

let header_root header =
  Ode_storage.Bigbytes.(get_uint16_le header 8 lor (get_uint16_le header 10 lsl 16))

(* Every page of a flushed tree holds exactly the bytes the reference
   encoder writes for the node it holds, keys stored past the common
   prefix of the node's fences, up to the disk layer's checksum trailer,
   the header page included, and those nodes hold the model's contents.
   So in-place edits leave no trace of the page's history. The keys share
   prefixes of several lengths, so that most nodes store one. *)
let pages_match_reference_encoder () =
  let path = file_tree () in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
  let rng = Random.State.make [| 7 |] in
  let key k = Printf.sprintf "%s-%04d" (String.make (k mod 7 * 9) (Char.chr (97 + (k mod 3)))) k in
  let ops =
    List.init 3000 (fun _ ->
        let k = Random.State.int rng 2000 in
        if Random.State.int rng 4 = 0 then `Delete (key k) else `Insert (key k, Random.State.int rng 1000))
  in
  let model = List.sort compare (apply_ops ~value:long_value t ops) in
  Bptree.flush t;
  Disk.close d;
  let d = Disk.open_file path in
  let page n = Disk.read d n in
  let header = page 0 in
  let root = header_root header in
  Tutil.check_string "header page"
    (Reference.header ~root ~count:(List.length model))
    (Ode_storage.Bigbytes.sub_string header 0 Ode_storage.Page.data_end);
  let checked = ref 0 and prefixed = ref 0 in
  let rec walk n ~lo ~hi =
    let data = page n in
    let node = Reference.read_node data in
    let prefix = fence_prefix lo hi in
    if prefix <> "" then incr prefixed;
    Tutil.check_string (Printf.sprintf "page %d" n) (Reference.page ~prefix node)
      (Ode_storage.Bigbytes.sub_string data 0 Reference.node_end);
    incr checked;
    match node with
    | Reference.Leaf (entries, _) -> Array.to_list entries
    | Reference.Internal (keys, children) ->
        List.concat
          (List.mapi
             (fun i c ->
               let lo = if i = 0 then lo else Some keys.(i - 1) in
               let hi = if i = Array.length keys then hi else Some keys.(i) in
               walk c ~lo ~hi)
             (Array.to_list children))
  in
  let entries = walk root ~lo:None ~hi:None in
  Disk.close d;
  Tutil.check_bool "tree has internal nodes" true (!checked > 3);
  Tutil.check_bool "most nodes store a prefix" true (!prefixed * 2 > !checked);
  Tutil.check_bool "contents = model" true (entries = model)

(* Rewrite page [n] of the file at [path] with [f] applied to a copy of
   its bytes; the batch stamps a fresh checksum, so the disk layer passes
   the page. *)
let rewrite_page path n f =
  let d = Disk.open_file path in
  let data = Bytes.of_string (Ode_storage.Bigbytes.to_string (Disk.read d n)) in
  f data;
  Disk.write_batch d [ (n, Ode_storage.Bigbytes.of_string (Bytes.to_string data)) ];
  Disk.close d

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

(* A store written by an earlier node layout is refused at open rather
   than misread. Its trees are stamped with the old magic, with valid page
   checksums. The store was left crashed, so its log holds a commit: the
   refusal comes before replay, and the log and the tree files keep their
   bytes. *)
let old_format_refused old () =
  let dir = Tutil.temp_dir "oldbpt" in
  let db = Ode.Database.open_ dir in
  ignore (Ode.Database.define db "class z { v: int; };");
  Ode.Database.create_cluster db "z";
  Ode.Database.create_index db ~cls:"z" ~field:"v";
  Ode.Database.with_txn db (fun txn ->
      ignore (Ode.Database.pnew txn "z" [ ("v", Ode_model.Value.Int 1) ]));
  Ode.Database.crash db;
  let files = [ "directory.bpt"; "indexes.bpt" ] in
  List.iter
    (fun file -> rewrite_page (Filename.concat dir file) 0 (fun data -> Bytes.blit_string old 0 data 0 8))
    files;
  let snapshot () = List.map (fun f -> file_bytes (Filename.concat dir f)) ("wal.log" :: files) in
  let before = snapshot () in
  Tutil.check_bool "the log holds a commit" true (String.length (List.hd before) > 0);
  (match Ode.Database.open_ dir with
  | db ->
      Ode.Database.close db;
      Alcotest.failf "a store in the %s layout opened" old
  | exception Ode_util.Codec.Corrupt msg ->
      if not (Tutil.contains msg (Printf.sprintf "bpt: bad magic %S, this build reads \"ODEBPT03\"" old)) then
        Alcotest.failf "refused for another reason: %s" msg;
      if not (Tutil.contains msg dir) then Alcotest.failf "the refusal names no file: %s" msg
  | exception e -> Alcotest.failf "refused with %s, not as corrupt" (Printexc.to_string e));
  Tutil.check_bool "the log and the trees keep their bytes" true (snapshot () = before)

(* The first leaf whose fences share a prefix, in a walk of the flushed
   tree file at [path]: its page, its node and that prefix. *)
let prefixed_leaf path =
  let d = Disk.open_file path in
  Fun.protect ~finally:(fun () -> Disk.close d) @@ fun () ->
  let rec walk n ~lo ~hi =
    match Reference.read_node (Disk.read d n) with
    | Reference.Leaf (entries, _) as node ->
        let p = fence_prefix lo hi in
        if p <> "" && Array.for_all (fun (k, _) -> String.length k > String.length p) entries then Some (n, node, p)
        else None
    | Reference.Internal (keys, children) ->
        let rec first i =
          if i = Array.length children then None
          else
            let lo = if i = 0 then lo else Some keys.(i - 1) and hi = if i = Array.length keys then hi else Some keys.(i) in
            match walk children.(i) ~lo ~hi with Some _ as found -> found | None -> first (i + 1)
        in
        first 0
  in
  match walk (header_root (Disk.read d 0)) ~lo:None ~hi:None with
  | Some found -> found
  | None -> Alcotest.fail "no leaf stores a prefix"

(* A closed store of 3,000 objects, whose directory spans many leaves;
   returns its directory and the path of its directory tree. *)
let closed_store name =
  let dir = Tutil.temp_dir name in
  let db = Ode.Database.open_ dir in
  ignore (Ode.Database.define db "class z { v: int; s: string; };");
  Ode.Database.create_cluster db "z";
  Ode.Database.with_txn db (fun txn ->
      for i = 1 to 3000 do
        ignore (Ode.Database.pnew txn "z" [ ("v", Ode_model.Value.Int i); ("s", Ode_model.Value.Str (String.make 40 's')) ])
      done);
  Ode.Database.close db;
  (dir, Filename.concat dir "directory.bpt")

(* [Verify.run] on the store in [dir] reports a problem containing each
   of [expect]. *)
let verify_names dir what expect =
  let db = Ode.Database.open_ dir in
  Fun.protect ~finally:(fun () -> Ode.Database.close db) @@ fun () ->
  match Ode.Verify.run db with
  | Ok () -> Alcotest.failf "Verify passed %s" what
  | Error ps ->
      List.iter
        (fun e ->
          if not (List.exists (fun p -> Tutil.contains p e) ps) then
            Alcotest.failf "Verify missed %S in %s: %s" e what (String.concat "; " ps))
        expect

(* A leaf that stores a prefix one byte longer than its fences share, its
   keys cut by that byte more, as a writer that took one byte too many
   would leave it, with a valid checksum. Every key still starts with the
   prefix it stores, and they still sort, so only the prefix check sees
   it: [check] names the leaf's prefix, and so does [Verify.run] on a
   store whose directory holds such a leaf. *)
let long_prefix_caught () =
  let dir, path = closed_store "longpfx" in
  let page, node, p = prefixed_leaf path in
  let longer =
    match node with Reference.Leaf (entries, _) -> String.sub (fst entries.(0)) 0 (String.length p + 1) | _ -> assert false
  in
  rewrite_page path page (fun data -> Bytes.blit_string (Reference.page ~prefix:longer node) 0 data 0 Reference.node_end);
  let d = Disk.open_file path in
  (match Bptree.check (Bptree.attach (Pool.create ~capacity:64 d)) with
  | Ok () -> Alcotest.fail "check passed a leaf whose prefix is a byte too long"
  | Error { msg = e; _ } -> Tutil.check_bool ("reported as the prefix: " ^ e) true (Tutil.contains e "key prefix"));
  Disk.close d;
  verify_names dir "a leaf whose prefix is a byte too long" [ "key prefix" ]

(* The first three leaves of the chain of the tree file at [path]. *)
let first_leaves path =
  let d = Disk.open_file path in
  Fun.protect ~finally:(fun () -> Disk.close d) @@ fun () ->
  let rec leftmost n =
    match Reference.read_node (Disk.read d n) with
    | Reference.Leaf _ -> n
    | Reference.Internal (_, children) -> leftmost children.(0)
  in
  let next n = match Reference.read_node (Disk.read d n) with Reference.Leaf (_, nx) -> nx | _ -> 0 in
  let first = leftmost (header_root (Disk.read d 0)) in
  let second = next first in
  let third = if second = 0 then 0 else next second in
  Tutil.check_bool "three leaves or more" true (second <> 0 && third <> 0);
  (first, second, third)

(* Structural damage in a closed store's directory, each page rewritten
   with a valid checksum, is named by [Verify.run] with its tree, and ends
   the directory pass: a leaf whose first two keys are swapped, and a
   leaf whose chain link skips its successor. *)
let verify_names_structural_damage () =
  let stopped = "not checked, as the directory pass stopped" in
  let dir, path = closed_store "unsorted" in
  let page, node, p = prefixed_leaf path in
  let swapped =
    match node with
    | Reference.Leaf (entries, next) ->
        let es = Array.copy entries in
        es.(0) <- entries.(1);
        es.(1) <- entries.(0);
        Reference.Leaf (es, next)
    | _ -> assert false
  in
  rewrite_page path page (fun data -> Bytes.blit_string (Reference.page ~prefix:p swapped) 0 data 0 Reference.node_end);
  verify_names dir "a leaf with unsorted keys" [ Printf.sprintf "directory tree: node %d: keys unsorted" page; stopped ];
  let dir, path = closed_store "chainskip" in
  let first, second, third = first_leaves path in
  rewrite_page path first (fun data -> Bytes.set_int32_le data 3 (Int32.of_int third));
  verify_names dir "a leaf chain that skips a leaf"
    [ Printf.sprintf "directory tree: leaf chain links leaf %d to %d, not to the next leaf %d" first third second; stopped ]

(* A flushed file-backed tree of [n] keys, closed; returns its path. *)
let flushed_tree ?(value = fun i -> string_of_int i) n =
  let path = file_tree () in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:1024 d) in
  put_sorted t (Array.init n (fun i -> (key i, value i)));
  Bptree.flush t;
  Disk.close d;
  path

(* [check] walks the leaf chain: a next pointer that skips a leaf, in a
   page rewritten with a valid checksum, is reported. *)
let check_follows_leaf_chain () =
  let path = flushed_tree 2000 in
  let first, _, third = first_leaves path in
  let reopen () =
    let d = Disk.open_file path in
    (d, Bptree.attach (Pool.create ~capacity:64 d))
  in
  let d, t = reopen () in
  assert_ok t;
  Disk.close d;
  (* Point the first leaf past the second. *)
  rewrite_page path first (fun data -> Bytes.set_int32_le data 3 (Int32.of_int third));
  let d, t = reopen () in
  (match Bptree.check t with
  | Ok () -> Alcotest.fail "check passed a leaf chain that skips a leaf"
  | Error { msg = e; _ } -> Tutil.check_bool ("reported as a chain fault: " ^ e) true (Tutil.contains e "leaf chain"));
  Disk.close d

(* -- no second cache --------------------------------------------------------------- *)

let gate_keys = 40_000

(* [check] compares each leaf's keys where they lie: on a warm 40k-key
   tree it allocates under half a word per entry, where a copied-out key
   of this width takes three, and a leaf whose keys are out of order is
   still rejected. *)
let check_compares_in_place () =
  let t = Bptree.attach (Pool.create ~capacity:2048 (Disk.in_memory ())) in
  put_sorted t (Array.init gate_keys (fun i -> (key i, Printf.sprintf "%08d" i)));
  assert_ok t;
  let per_entry = Tutil.allocated_words (fun () -> assert_ok t) /. float gate_keys in
  if per_entry >= 0.5 then Alcotest.failf "check allocates %.2f words an entry" per_entry;
  let path = flushed_tree 2000 in
  let first, _, _ = first_leaves path in
  (* Swap the bytes of the first two keys, which have one length: each
     entry is a one-byte length, then the key, whole in the leftmost leaf,
     whose prefix is empty. *)
  rewrite_page path first (fun data ->
      let at i = Bytes.get_uint16_le data (11 + (2 * i)) + 1 in
      let k0 = Bytes.sub data (at 0) 10 in
      Bytes.blit data (at 1) data (at 0) 10;
      Bytes.blit k0 0 data (at 1) 10);
  let d = Disk.open_file path in
  (match Bptree.check (Bptree.attach (Pool.create ~capacity:64 d)) with
  | Ok () -> Alcotest.fail "check passed a leaf with unsorted keys"
  | Error { msg = e; _ } -> Tutil.check_bool ("reported as unsorted: " ^ e) true (Tutil.contains e "keys unsorted"));
  Disk.close d

(* A hit of [find] on a warm tree allocates the value it returns and the
   option around it, and nothing else: the descent pins each frame and
   searches it in place. *)
let find_allocates_only_its_result () =
  let t = Bptree.attach (Pool.create ~capacity:2048 (Disk.in_memory ())) in
  put_sorted t (Array.init gate_keys (fun i -> (key i, Printf.sprintf "%08d" i)));
  let probes = Array.init 10_000 (fun i -> key (i * 7 mod gate_keys)) in
  Array.iter (fun k -> ignore (Bptree.find t k)) probes;
  let result_words = Obj.reachable_words (Obj.repr (Bptree.find t probes.(0))) in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length probes - 1 do
    ignore (Sys.opaque_identity (Bptree.find t probes.(i)))
  done;
  let words = Gc.minor_words () -. w0 in
  let per_find = words /. float (Array.length probes) in
  if per_find > float result_words then
    Alcotest.failf "find allocates %.2f words a hit; its result is %d" per_find result_words

(* With every frame of a 40k-key tree resident, a full scan and 10,000
   finds leave the live heap as it was: no decoded node outlives the call
   that read it. *)
let no_second_cache () =
  let path = flushed_tree gate_keys in
  let d = Disk.open_file path in
  let pool = Pool.create ~capacity:2048 d in
  let t = Bptree.attach pool in
  for n = 0 to Pool.page_count pool - 1 do
    Pool.with_page pool n ignore
  done;
  let probes = Array.init 10_000 (fun i -> key (i * 7 mod gate_keys)) in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let before = live () in
  let cur = Bptree.cursor t () in
  let scanned = ref 0 in
  while Bptree.cursor_next cur <> None do
    incr scanned
  done;
  Array.iter (fun k -> ignore (Bptree.find t k)) probes;
  let grown = live () - before in
  (* The tree, and so its pool, and the probes stay live through both
     counts. *)
  ignore (Sys.opaque_identity (t, probes));
  Tutil.check_int "scan saw every key" gate_keys !scanned;
  if grown > 1024 then Alcotest.failf "the live heap grew by %d words over the scan and finds" grown;
  Disk.close d

(* -- leaf fill -------------------------------------------------------------------- *)

(* Entry [i] of 40,000: a 19-byte key and an 8-byte value. *)
let fill_entry i = (Printf.sprintf "fill-%014d" i, Printf.sprintf "%08d" i)

(* The page count of an in-memory tree after [load] fills it. *)
let pages_after load =
  let t = Bptree.attach (Pool.create ~capacity:4096 (Disk.in_memory ())) in
  load t;
  assert_ok t;
  Bptree.page_count t

(* Entries inserted one call each, in [order]. *)
let pages_for order =
  pages_after (fun t ->
      Array.iter
        (fun i ->
          let k, v = fill_entry i in
          Bptree.insert t k v)
        order)

(* Every entry in one sorted batch. *)
let batch_pages () = pages_after (fun t -> put_sorted t (Array.init gate_keys fill_entry))

(* Ascending keys inserted one call each fill their leaves: the pieces an
   append cuts are filled in order, and a leaf an append split left behind
   is refilled by the next one, so the tree takes at most 10% more pages
   than one sorted batch (155, where whole keys took 310). Without the
   refill the leaves left behind keep their share of the keys' bytes from
   before they took a prefix (311 pages); an even cut of every append
   leaves each leaf half full. *)
let ascending_inserts_fill_leaves () =
  let batch = batch_pages () in
  let one_by_one = pages_for (Array.init gate_keys Fun.id) in
  if one_by_one * 10 > batch * 11 then
    Alcotest.failf "ascending inserts took %d pages; one sorted batch takes %d" one_by_one batch

let family_appends () = Ode_util.Stats.(get (snapshot ()) "bptree.family_appends")

(* [f]'s count of family-append cuts. *)
let family_appends_during f =
  let before = family_appends () in
  f ();
  family_appends () - before

(* Random-order inserts almost never append to a last child, and never
   chain as a family's do (the counter of family-append cuts reads 0), so
   they keep the even cut and the page count it gives: 241, where whole
   keys took 448, as most of these 19-byte keys is a prefix their leaf
   shares. *)
let random_inserts_keep_even_cuts () =
  let order = Array.init gate_keys Fun.id in
  let rng = Random.State.make [| 306 |] in
  for i = gate_keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let pages = ref 0 in
  Tutil.check_int "family appends among random-order inserts" 0
    (family_appends_during (fun () -> pages := pages_for order));
  Tutil.check_int "pages after random-order inserts" 241 !pages

(* A store in miniature: a block of 20,000 version keys ('V'), then 6,000
   batches, each of two or three new header keys ('H', ascending), which
   land ahead of the block, and a version of a random object. When
   [headers_last], the header keys go in one sorted batch after the rest
   instead. *)
let family_load ~headers_last t =
  let rng = Random.State.make [| 40 |] in
  let header i = (Printf.sprintf "H%06d" i, "header-rid") in
  put_sorted t (Array.init 20_000 (fun i -> (Printf.sprintf "V%06d" (i * 3), "version-rid")));
  let next = ref 0 in
  for _ = 1 to 6_000 do
    let n = 2 + Random.State.int rng 2 in
    let hs = if headers_last then [||] else Array.init n (fun j -> header (!next + j)) in
    next := !next + n;
    let v = Printf.sprintf "V%06d" ((3 * Random.State.int rng 20_000) + 1) in
    put_sorted t (Array.append hs [| (v, "version-rid") |])
  done;
  if headers_last then put_sorted t (Array.init !next header)

(* Header keys that keep landing ahead of a block of version keys are
   family appends: the counter records some (it reads 0 for random-order
   inserts, above). They fill their leaves: the tree takes at most 10%
   more pages than one where they came last, in one sorted batch (264
   pages against 251; an even cut of every append took 342). *)
let family_appends_counted () =
  let counted = ref 0 in
  let pages =
    pages_after (fun t -> counted := family_appends_during (fun () -> family_load ~headers_last:false t))
  in
  if !counted = 0 then Alcotest.fail "header keys ahead of a version block recorded no family append";
  let batch = pages_after (family_load ~headers_last:true) in
  if pages * 10 > batch * 11 then
    Alcotest.failf "header keys ahead of a version block took %d pages; in one batch after it, %d" pages batch

(* -- rotten nodes ------------------------------------------------------------------ *)

(* Flip random bytes inside one flushed node's used region (header, slots
   and entries) and re-stamp its checksum. [find], a full cursor scan and
   [check] each succeed or raise [Codec.Corrupt]; an out-of-bounds access
   or any other exception fails. *)
let prop_rotten_nodes_corrupt =
  let rotten_path = lazy (flushed_tree ~value:(fun i -> String.make (i mod 150) 'v') 3000) in
  QCheck.Test.make ~name:"rotten nodes raise Corrupt" ~count:200
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 4) (pair (int_bound 1_000_000) (int_range 1 255))))
    (fun (which, flips) ->
      let src = Lazy.force rotten_path in
      let path = file_tree () in
      Tutil.copy_file src path;
      let d = Disk.open_file path in
      let pages = Disk.page_count d in
      Disk.close d;
      let page = 1 + (which mod (pages - 1)) in
      rewrite_page path page (fun data ->
          let n = Bytes.get_uint16_le data 1 and top = Bytes.get_uint16_le data 7 in
          let head = min (11 + (2 * n)) Reference.node_end in
          let top = min (max top head) Reference.node_end in
          let used = head + (Reference.node_end - top) in
          List.iter
            (fun (at, x) ->
              let at = at mod used in
              let at = if at < head then at else top + (at - head) in
              Bytes.set_uint8 data at (Bytes.get_uint8 data at lxor x))
            flips);
      let d = Disk.open_file path in
      let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
      let survives what f =
        match f () with
        | () -> ()
        | exception Ode_util.Codec.Corrupt _ -> ()
        | exception e -> QCheck.Test.fail_reportf "%s on page %d: %s" what page (Printexc.to_string e)
      in
      survives "find" (fun () ->
          for i = 0 to 99 do
            ignore (Bptree.find t (key (i * 31)))
          done);
      survives "scan" (fun () ->
          let cur = Bptree.cursor t () in
          while Bptree.cursor_next cur <> None do
            ()
          done);
      survives "check" (fun () -> ignore (Bptree.check t));
      Disk.close d;
      true)

let suite =
  [
    ( "bptree",
      [
        Alcotest.test_case "basic ops" `Quick basic;
        Alcotest.test_case "insert replaces" `Quick replace;
        Alcotest.test_case "delete" `Quick delete;
        Alcotest.test_case "splits under load" `Quick many_keys_split;
        Alcotest.test_case "range scan" `Quick range_scan;
        Alcotest.test_case "range early stop" `Quick range_early_stop;
        Alcotest.test_case "reverse range" `Quick reverse_range;
        Alcotest.test_case "prefix scan" `Quick prefix_scan;
        Alcotest.test_case "cursor basics" `Quick cursor_basics;
        Alcotest.test_case "cursor prefix" `Quick cursor_prefix;
        Alcotest.test_case "cursor early exit stops page reads" `Quick cursor_early_exit_pages;
        Alcotest.test_case "persists across reopen" `Quick persistence;
        Alcotest.test_case "oversized entries rejected" `Quick large_entries_rejected;
        Alcotest.test_case "pages match the reference encoder" `Quick pages_match_reference_encoder;
        Alcotest.test_case "ODEBPT01 store refused at open" `Quick (old_format_refused "ODEBPT01");
        Alcotest.test_case "ODEBPT02 store refused at open" `Quick (old_format_refused "ODEBPT02");
        Alcotest.test_case "check follows the leaf chain" `Quick check_follows_leaf_chain;
        Alcotest.test_case "check catches a long key prefix" `Quick long_prefix_caught;
        Alcotest.test_case "verify names structural damage" `Quick verify_names_structural_damage;
        Alcotest.test_case "check compares keys in place" `Quick check_compares_in_place;
        Alcotest.test_case "find allocates only its result" `Quick find_allocates_only_its_result;
        Alcotest.test_case "no second cache after a scan" `Quick no_second_cache;
        Alcotest.test_case "ascending inserts fill their leaves" `Quick ascending_inserts_fill_leaves;
        Alcotest.test_case "random inserts keep even cuts" `Quick random_inserts_keep_even_cuts;
        Alcotest.test_case "family appends are counted" `Quick family_appends_counted;
        Alcotest.test_case "apply_sorted matches a Map model" `Quick apply_sorted_model;
        Alcotest.test_case "cursor keeps its leaf across a batch" `Quick cursor_keeps_leaf_snapshot;
        Alcotest.test_case "apply_sorted rejects bad batches" `Quick apply_sorted_rejects;
      ] );
    (* Its own group so nightly CI can run it alone at a larger key count. *)
    ( "bptree.crash",
      [
        Alcotest.test_case "pressure flush never persists half a split" `Quick
          pressure_flush_never_splits_half;
      ] );
    Tutil.qsuite "bptree.props"
      [
        prop_model;
        prop_reverse_matches_forward;
        prop_cursor_matches_iter_range;
        prop_reopen_matches_model;
        prop_families;
        prop_mixed_batches;
        prop_rotten_nodes_corrupt;
      ];
  ]
