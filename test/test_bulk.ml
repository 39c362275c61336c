(* Gates for the bulk write path, the one every load takes: what a
   [pnew] allocates, and what a commit of thousands of new objects
   allocates and how often it descends a tree. They count, so they hold
   whatever the host's speed.

   A [pnew] of a two-field object with one index builds its record, its
   header key and its index key once each, at their final size, checks
   its scalar slots without closures or option boxes, and enters them in
   the write set (293 words when each was built in a [Buffer] and copied
   out).

   A commit sorts its write set once, into one array that the WAL frame,
   MVCC, the split between the two trees and the directory's batch all
   read. The directory entries of its ascending keys are found with one
   descent per leaf they fall in, and each tree's batch costs one descent
   per leaf run (a 5,000-object commit allocated 250 words an object and
   made 5,033 probes when each key had a descent of its own and each
   stage built lists of the write set). *)

module Db = Ode.Database
module Value = Ode_model.Value
module Stats = Ode_util.Stats
module Prng = Ode_util.Prng

let probes f =
  let s0 = Stats.snapshot () in
  f ();
  Stats.(get (diff (snapshot ()) s0) "index_probes")

(* The serve-read-cold load's shape: an int key, a 64-byte string, an
   index on the key, keys in a seeded random order. *)
let kv_db db =
  ignore (Db.define db "class kv { k: int; v: string; };");
  Db.create_cluster db "kv";
  Db.create_index db ~cls:"kv" ~field:"k";
  db

let batch = 5_000

let load_batch db rng keys b =
  Db.with_txn db (fun txn ->
      for j = b * batch to ((b + 1) * batch) - 1 do
        ignore (Db.pnew txn "kv" [ ("k", Value.Int keys.(j)); ("v", Value.Str (Prng.string rng 64)) ])
      done)

let pnew_words () =
  let db = kv_db (Db.open_in_memory ()) in
  let txn = Db.begin_txn db in
  let n = 2_000 in
  let v = String.make 64 'v' in
  (* Warm: the write set's tables grow to their size first. *)
  for k = 0 to n - 1 do
    ignore (Db.pnew txn "kv" [ ("k", Value.Int k); ("v", Value.Str v) ])
  done;
  let fields = Array.init n (fun k -> [ ("k", Value.Int (n + k)); ("v", Value.Str v) ]) in
  let words = Tutil.allocated_words (fun () -> Array.iter (fun f -> ignore (Db.pnew txn "kv" f)) fields) in
  let per = words /. float n in
  Db.abort txn;
  Db.close db;
  Printf.printf "a pnew: %.1f words\n" per;
  if per > 120. then Alcotest.failf "a pnew allocates %.1f words, over 120" per

(* The second 5,000-object commit into a store holding 5,000: its new
   header keys all land past the directory's last leaf, and its index
   keys spread over the index tree's leaves. *)
let commit_gates ~disk () =
  let db =
    if disk then Db.open_ (Filename.concat (Tutil.temp_dir "bulk") "db") else Db.open_in_memory ()
  in
  let db = kv_db db in
  let rng = Prng.create 1 in
  let keys = Array.init (2 * batch) Fun.id in
  Prng.shuffle rng keys;
  load_batch db rng keys 0;
  let txn = Db.begin_txn db in
  for j = batch to (2 * batch) - 1 do
    ignore (Db.pnew txn "kv" [ ("k", Value.Int keys.(j)); ("v", Value.Str (Prng.string rng 64)) ])
  done;
  let p = ref 0 in
  let words = Tutil.allocated_words (fun () -> p := probes (fun () -> Db.commit txn)) in
  let per = words /. float batch in
  Db.close db;
  Printf.printf "a %d-object commit: %.1f words an object, %d probes\n" batch per !p;
  if per > 150. then Alcotest.failf "a %d-object commit allocates %.1f words an object, over 150" batch per;
  if !p > 100 then Alcotest.failf "a %d-object commit makes %d index probes, over 100" batch !p

let suite =
  [
    ( "bulk_write",
      [
        Alcotest.test_case "a pnew allocates its keys once" `Quick pnew_words;
        Alcotest.test_case "a bulk commit, in memory" `Quick (commit_gates ~disk:false);
        Alcotest.test_case "a bulk commit, on disk" `Quick (commit_gates ~disk:true);
      ] );
  ]
