module Bptree = Ode_index.Bptree
module Disk = Ode_storage.Disk
module Pool = Ode_storage.Buffer_pool

let mk () = Bptree.attach (Pool.create ~capacity:128 (Disk.in_memory ()))
let assert_ok t = match Bptree.check t with Ok () -> () | Error e -> Alcotest.fail e

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
  Tutil.check_bool "delete hit" true (Bptree.delete t "x");
  Tutil.check_bool "delete miss" false (Bptree.delete t "x");
  Alcotest.(check (option string)) "gone" None (Bptree.find t "x");
  Tutil.check_int "count" 0 (Bptree.count t)

let key k = Printf.sprintf "key-%06d" k

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
  Bptree.delete t (key 10) |> ignore;
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
  QCheck.Test.make ~name:"cursor = iter_range" ~count:100
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
  QCheck.Test.make ~name:"iter_range_rev = rev iter_range" ~count:100
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

let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 400)
      (frequency
         [
           (6, map2 (fun k v -> `Insert (k mod 500, v mod 1000)) nat nat);
           (3, map (fun k -> `Delete (k mod 500)) nat);
         ]))

(* Apply [ops] to [t], mirrored in an association list; [value] renders the
   generated integer. Fails the property on a delete-result mismatch. *)
let apply_ops ?(value = string_of_int) t ops =
  List.fold_left
    (fun model op ->
      match op with
      | `Insert (k, v) ->
          let ks = key k and vs = value v in
          Bptree.insert t ks vs;
          (ks, vs) :: List.remove_assoc ks model
      | `Delete k ->
          let ks = key k in
          let present = List.mem_assoc ks model in
          if present <> Bptree.delete t ks then QCheck.Test.fail_report "delete result mismatch";
          List.remove_assoc ks model)
    [] ops

(* Contents and order both match the model, and the structure checks. *)
let matches_model t model =
  (match Bptree.check t with Ok () -> () | Error e -> QCheck.Test.fail_report e);
  let scan = ref [] in
  Bptree.iter_range t (fun k v ->
      scan := (k, v) :: !scan;
      true);
  let expected = List.sort compare model in
  List.rev !scan = expected && Bptree.count t = List.length expected

let prop_model =
  QCheck.Test.make ~name:"bptree matches Map" ~count:60 (QCheck.make ops_gen) (fun ops ->
      let t = mk () in
      matches_model t (apply_ops t ops))

(* -- file-backed trees under a tiny pool ----------------------------------------- *)

let tiny_pool = 4
let file_tree () = Filename.concat (Tutil.temp_dir "bpt") "t.bpt"

(* Values of varied length, so leaves split at varied entry counts. *)
let long_value v = string_of_int v ^ String.make (v mod 97) '.'

(* Written through a 4-frame pool, flushed, then reopened on a fresh pool:
   the node cache starts empty, so every read decodes page bytes. *)
let prop_reopen_matches_model =
  QCheck.Test.make ~name:"file-backed tree reopens to the model" ~count:30 (QCheck.make ops_gen)
    (fun ops ->
      let path = file_tree () in
      let d = Disk.open_file path in
      let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
      let model = apply_ops ~value:long_value t ops in
      Bptree.flush t;
      Disk.close d;
      let d = Disk.open_file path in
      Fun.protect
        ~finally:(fun () -> Disk.close d)
        (fun () -> matches_model (Bptree.attach (Pool.create ~capacity:tiny_pool d)) model))

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
    | Error e -> Alcotest.failf "file after insert %d: %s" i e);
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
  Bptree.insert_sorted t run;
  let pieces = Ode_util.Stats.(get (snapshot ()) "bptree.leaf_writes") - leaf_writes in
  Tutil.check_bool "the run cut its leaf into three or more pieces" true (pieces >= 3);
  Tutil.check_bool "the leaf's parent routes a search to every piece" true
    (Array.for_all (fun (k, _) -> Bptree.find t k <> None) run);
  Tutil.copy_file path copy;
  let dc = Disk.open_file copy in
  let c = Bptree.attach (Pool.create ~capacity:tiny_pool dc) in
  (match Bptree.check c with Ok () -> () | Error e -> Alcotest.failf "file after the run: %s" e);
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

(* Seeded batches of 1, 2-50 and 5,000 keys, each sequential (past every
   key so far), random, or replacing existing keys, with random deletes
   between them. After every batch the tree matches a Map model by find,
   count, cursor order and [check], and again after a reopen. A cursor
   opened before each batch keeps its snapshot. *)
let insert_sorted_model () =
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
    (match Bptree.check !t with Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e);
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
    let rec fill b = if SM.cardinal b >= size then b else fill (SM.add (key ()) (value ()) b) in
    fill SM.empty
  in
  let sizes = [ 1; 2 + Random.State.int rng 49; 5000 ] in
  List.iteri
    (fun round (size, kind) ->
      let what =
        Printf.sprintf "batch %d (%d %s keys)" round size
          (match kind with `Sequential -> "sequential" | `Random -> "random" | `Replace -> "existing")
      in
      let b = batch size kind in
      (* The cursor has read its first entry, so it holds that leaf. *)
      let cur = Bptree.cursor !t () in
      let first = Bptree.cursor_next cur in
      let before = !model in
      Bptree.insert_sorted !t (Array.of_list (SM.bindings b));
      model := SM.union (fun _ _ v -> Some v) !model b;
      (match first with
      | None ->
          Tutil.check_bool (what ^ ": empty cursor stays empty") true (Bptree.cursor_next cur = None)
      | Some ((k0, _) as e0) ->
          let seen = e0 :: drain cur in
          let keys = List.map fst seen in
          Tutil.check_bool (what ^ ": snapshot cursor ascends") true
            (List.sort_uniq compare keys = keys);
          List.iter
            (fun (k, v) ->
              if SM.find_opt k before <> Some v && SM.find_opt k b <> Some v then
                Alcotest.failf "%s: snapshot cursor yields unknown entry %s" what k)
            seen;
          let yielded = List.fold_left (fun m k -> SM.add k () m) SM.empty keys in
          SM.iter
            (fun k _ ->
              if k >= k0 && not (SM.mem k yielded) then
                Alcotest.failf "%s: snapshot cursor lost %s" what k)
            before);
      check_tree what;
      (* delete a few keys, then reopen from the file *)
      let victim = pick () in
      for _ = 1 to Random.State.int rng 30 do
        let k = victim () in
        Tutil.check_bool (what ^ ": delete") (SM.mem k !model) (Bptree.delete !t k);
        model := SM.remove k !model
      done;
      Bptree.flush !t;
      Disk.close !d;
      let d', t' = open_tree () in
      d := d';
      t := t';
      check_tree (what ^ " after deletes and reopen"))
    (List.concat_map
       (fun kind -> List.map (fun size -> (size, kind)) sizes)
       [ `Sequential; `Random; `Replace ]);
  Disk.close !d

(* A cursor inside a one-leaf tree keeps that leaf's entries while a batch
   cuts the leaf into many pieces. *)
let cursor_keeps_leaf_snapshot () =
  let t = mk () in
  let small = Array.init 20 (fun i -> (key (i * 1000), "old")) in
  Bptree.insert_sorted t small;
  Tutil.check_int "one leaf" 1 (Bptree.height t);
  let cur = Bptree.cursor t () in
  Bptree.insert_sorted t (Array.init 5000 (fun i -> (key ((i * 4) + 1), String.make 50 'n')));
  Tutil.check_bool "tree grew" true (Bptree.height t >= 2);
  Tutil.check_bool "cursor yields the leaf as it was" true (drain cur = Array.to_list small);
  assert_ok t

let insert_sorted_rejects () =
  let t = mk () in
  let rejects kvs =
    match Bptree.insert_sorted t kvs with () -> false | exception Invalid_argument _ -> true
  in
  Tutil.check_bool "descending" true (rejects [| ("b", ""); ("a", "") |]);
  Tutil.check_bool "repeated" true (rejects [| ("a", ""); ("a", "") |]);
  Tutil.check_bool "oversized after a good key" true (rejects [| ("a", ""); ("b", String.make 2000 'v') |]);
  Tutil.check_int "nothing applied" 0 (Bptree.count t);
  Bptree.insert_sorted t [||];
  Tutil.check_int "empty batch" 0 (Bptree.count t)

(* -- on-disk format -------------------------------------------------------------- *)

(* The node codec as it stood before nodes were encoded in place: a Buffer
   round trip per node. Kept here only as the reference for the format. *)
module Reference = struct
  module Codec = Ode_util.Codec

  type node = Leaf of (string * string) array * int | Internal of string array * int array

  let serialize node =
    let b = Buffer.create 512 in
    (match node with
    | Leaf (entries, next) ->
        Codec.put_u8 b 0;
        Codec.put_u16 b (Array.length entries);
        Codec.put_u32 b next;
        Array.iter
          (fun (k, v) ->
            Codec.put_u16 b (String.length k);
            Codec.put_raw b k;
            Codec.put_u16 b (String.length v);
            Codec.put_raw b v)
          entries
    | Internal (keys, children) ->
        Codec.put_u8 b 1;
        Codec.put_u16 b (Array.length keys);
        Codec.put_u32 b children.(0);
        Array.iteri
          (fun i k ->
            Codec.put_u16 b (String.length k);
            Codec.put_raw b k;
            Codec.put_u32 b children.(i + 1))
          keys);
    Buffer.contents b

  (* The page prefix [write_node] wrote: u16 length, then the node. *)
  let page_prefix node =
    let s = serialize node in
    let b = Buffer.create (String.length s + 2) in
    Codec.put_u16 b (String.length s);
    Codec.put_raw b s;
    Buffer.contents b

  let deserialize s =
    let c = Codec.cursor s in
    match Codec.get_u8 c with
    | 0 ->
        let n = Codec.get_u16 c in
        let next = Codec.get_u32 c in
        let entries =
          Array.init n (fun _ ->
              let k = Codec.get_raw c (Codec.get_u16 c) in
              let v = Codec.get_raw c (Codec.get_u16 c) in
              (k, v))
        in
        Leaf (entries, next)
    | _ ->
        let n = Codec.get_u16 c in
        let first = Codec.get_u32 c in
        let keys = Array.make n "" in
        let children = Array.make (n + 1) first in
        for i = 0 to n - 1 do
          keys.(i) <- Codec.get_raw c (Codec.get_u16 c);
          children.(i + 1) <- Codec.get_u32 c
        done;
        Internal (keys, children)

  let read_node page =
    let c = Codec.cursor (Bytes.to_string page) in
    deserialize (Codec.get_raw c (Codec.get_u16 c))

  let header ~root ~count =
    let b = Buffer.create Ode_storage.Page.size in
    Codec.put_raw b "ODEBPT01";
    Codec.put_u32 b root;
    Codec.put_i64 b (Int64.of_int count);
    Buffer.add_string b (String.make (Ode_storage.Page.data_end - Buffer.length b) '\000');
    Buffer.contents b
end

(* Every page of a flushed tree starts with exactly the bytes the reference
   encoder writes for the node it holds, the header page included, and those
   nodes hold the model's contents: so a store written now opens on a build
   that still decodes with the reference. *)
let pages_match_reference_encoder () =
  let path = file_tree () in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
  let rng = Random.State.make [| 7 |] in
  let ops =
    List.init 3000 (fun _ ->
        let k = Random.State.int rng 2000 in
        if Random.State.int rng 4 = 0 then `Delete k else `Insert (k, Random.State.int rng 1000))
  in
  let model = List.sort compare (apply_ops ~value:long_value t ops) in
  Bptree.flush t;
  Disk.close d;
  let d = Disk.open_file path in
  let page n = Disk.read d n in
  let header = page 0 in
  let root = Bytes.get_uint16_le header 8 lor (Bytes.get_uint16_le header 10 lsl 16) in
  Tutil.check_string "header page"
    (Reference.header ~root ~count:(List.length model))
    (Bytes.sub_string header 0 Ode_storage.Page.data_end);
  let checked = ref 0 in
  let rec walk n =
    let data = page n in
    let node = Reference.read_node data in
    let expected = Reference.page_prefix node in
    Tutil.check_string (Printf.sprintf "page %d prefix" n) expected
      (Bytes.sub_string data 0 (String.length expected));
    incr checked;
    match node with
    | Reference.Leaf (entries, _) -> Array.to_list entries
    | Reference.Internal (_, children) -> List.concat_map walk (Array.to_list children)
  in
  let entries = walk root in
  Disk.close d;
  Tutil.check_bool "tree has internal nodes" true (!checked > 3);
  Tutil.check_bool "contents = model" true (entries = model)

(* A store laid out by the reference encoder (two leaves under an internal
   root) opens, reads and takes further inserts. *)
let reference_store_opens () =
  let path = file_tree () in
  let d = Disk.open_file path in
  for _ = 0 to 3 do
    ignore (Disk.allocate d)
  done;
  let write n s =
    let b = Bytes.make Ode_storage.Page.size '\000' in
    Bytes.blit_string s 0 b 0 (String.length s);
    Disk.write d n b
  in
  let left = Array.init 3 (fun i -> (key i, string_of_int i)) in
  let right = Array.init 3 (fun i -> (key (i + 3), string_of_int (i + 3))) in
  write 0 (Reference.header ~root:3 ~count:6);
  write 1 (Reference.page_prefix (Reference.Leaf (left, 2)));
  write 2 (Reference.page_prefix (Reference.Leaf (right, 0)));
  write 3 (Reference.page_prefix (Reference.Internal ([| key 3 |], [| 1; 2 |])));
  Disk.close d;
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:tiny_pool d) in
  assert_ok t;
  Tutil.check_int "count" 6 (Bptree.count t);
  Alcotest.(check (option string)) "left leaf" (Some "1") (Bptree.find t (key 1));
  Alcotest.(check (option string)) "right leaf" (Some "4") (Bptree.find t (key 4));
  Bptree.insert t (key 6) "6";
  assert_ok t;
  Tutil.check_int "count after insert" 7 (Bptree.count t);
  Disk.close d

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
        Alcotest.test_case "reference-encoded store opens" `Quick reference_store_opens;
        Alcotest.test_case "insert_sorted matches a Map model" `Quick insert_sorted_model;
        Alcotest.test_case "cursor keeps its leaf across a batch" `Quick cursor_keeps_leaf_snapshot;
        Alcotest.test_case "insert_sorted rejects bad batches" `Quick insert_sorted_rejects;
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
      ];
  ]
