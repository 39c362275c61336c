(* Torn-write simulation: truncate the WAL at arbitrary byte positions and
   reopen. The recovered database must contain exactly a committed prefix of
   the transaction history (never a partial transaction) and pass the
   integrity checker. *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value

(* Transaction [i] (from 1) creates [per_txn i] objects, numbered on from
   the last one before it, so most commits are multi-object frames (each
   object's header and index entry, plus the meta record) and a cut point
   can land inside one. Every third transaction also sets the root "last"
   to the number of its own last object. *)
let per_txn i = 1 + (i mod 4)

(* The number of objects after each transaction, with 0 for none. *)
let boundaries txns =
  List.rev
    (List.fold_left (fun acc i -> (List.hd acc + per_txn i) :: acc) [ 0 ] (List.init txns succ))

let build dir txns =
  (* Prevent auto-checkpointing so the whole history stays in the WAL. *)
  let db = Db.open_ ~wal_checkpoint_bytes:max_int dir in
  ignore (Db.define db "class w { seq: int; payload: string; };");
  Db.create_cluster db "w";
  Db.create_index db ~cls:"w" ~field:"seq";
  let next = ref 0 in
  for i = 1 to txns do
    Db.with_txn db (fun txn ->
        for _ = 1 to per_txn i do
          incr next;
          let payload = String.make (!next mod 50) 'p' in
          ignore (Db.pnew txn "w" [ ("seq", Int !next); ("payload", Str payload) ])
        done;
        if i mod 3 = 0 then Db.set_root txn "last" (Value.Int !next))
  done;
  (* No close: the data files stay stale; only the WAL is durable. *)
  db

let wal_size dir = (Unix.stat (Filename.concat dir "wal.log")).Unix.st_size

let truncate_wal dir bytes =
  let fd = Unix.openfile (Filename.concat dir "wal.log") [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd bytes;
  Unix.close fd

(* Recover [dir], written by [build dir txns], and return how many objects
   it holds, which must be a whole number of transactions. *)
let check_prefix dir txns =
  let db = Db.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "integrity after torn WAL: %s" (String.concat "; " ps));
  if Ode_model.Catalog.find (Db.catalog db) "w" = None then begin
    (* The cut fell before the schema's commit: a valid zero-length prefix. *)
    Db.close db;
    0
  end
  else begin
  (* The visible objects must be exactly seq = 1..k, k at the end of a
     transaction: a commit recovers whole or not at all. *)
  let seqs =
    Db.with_txn db (fun txn ->
        List.sort compare
          (List.map
             (fun o -> match Db.get_field txn o "seq" with Value.Int s -> s | _ -> -1)
             (Query.to_list db ~var:"x" ~cls:"w" ())))
  in
  let k = List.length seqs in
  if seqs <> List.init k (fun i -> i + 1) then
    Alcotest.failf "non-prefix recovery: [%s]" (String.concat ";" (List.map string_of_int seqs));
  let ends = boundaries txns in
  if not (List.mem k ends) then Alcotest.failf "a partial transaction recovered: %d objects" k;
  (* The root, when present, was written by the last recovered multiple of
     3 among the transactions. *)
  let committed = List.length (List.filter (fun e -> e <= k) ends) - 1 in
  Db.with_txn db (fun txn ->
      match Db.root txn "last" with
      | Some (Value.Int r) ->
          if r <> List.nth ends (committed / 3 * 3) then
            Alcotest.failf "root %d after %d transactions" r committed
      | Some _ -> Alcotest.fail "bad root type"
      | None -> if committed >= 3 then Alcotest.fail "root missing despite committed writer");
  Db.close db;
  k
  end

let torn_wal_prefixes () =
  let dir = Tutil.temp_dir "torn" in
  let db = build dir 40 in
  let total = wal_size dir in
  ignore db;
  (* Try a spread of cut points, each on a fresh copy. *)
  let rng = Ode_util.Prng.create 123 in
  let cuts = 0 :: total :: List.init 12 (fun _ -> Ode_util.Prng.int rng total) in
  let last_k = ref (-1) in
  List.iter
    (fun cut ->
      let snap = Tutil.temp_dir "torn-cut" in
      Sys.rmdir snap;
      Tutil.copy_dir dir snap;
      truncate_wal snap cut;
      let k = check_prefix snap 40 in
      if cut = total then last_k := k)
    (List.sort compare cuts);
  Tutil.check_int "untruncated WAL recovers everything" (List.nth (boundaries 40) 40) !last_k

let garbage_tail () =
  (* Appending garbage instead of truncating must behave the same. *)
  let dir = Tutil.temp_dir "torn-g" in
  ignore (build dir 10);
  let snap = Tutil.temp_dir "torn-g2" in
  Sys.rmdir snap;
  Tutil.copy_dir dir snap;
  let oc =
    Out_channel.open_gen [ Open_append; Open_binary ] 0o644 (Filename.concat snap "wal.log")
  in
  Out_channel.output_string oc "\255\254\253GARBAGE-NOT-A-FRAME";
  Out_channel.close oc;
  let k = check_prefix snap 10 in
  Tutil.check_int "all committed txns recovered" (List.nth (boundaries 10) 10) k

let corrupt_frame_checksum () =
  (* A bit flip *inside* a committed WAL frame — not just a truncated tail.
     Replay must stop at the corrupt frame, keep the committed prefix, and
     account the discarded bytes in the recovery stats. *)
  let dir = Tutil.temp_dir "torn-flip" in
  ignore (build dir 30);
  let snap = Tutil.temp_dir "torn-flip2" in
  Sys.rmdir snap;
  Tutil.copy_dir dir snap;
  let total = wal_size snap in
  let off = 2 * total / 5 in
  let fd = Unix.openfile (Filename.concat snap "wal.log") [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  if Unix.read fd b 0 1 <> 1 then Alcotest.fail "short read";
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  if Unix.write fd b 0 1 <> 1 then Alcotest.fail "short write";
  Unix.close fd;
  let torn_before = Ode_util.Stats.(get (snapshot ()) "wal_torn_bytes") in
  let k = check_prefix snap 30 in
  let torn_after = Ode_util.Stats.(get (snapshot ()) "wal_torn_bytes") in
  Tutil.check_bool "txns after the flipped frame are discarded" true
    (k < List.nth (boundaries 30) 30);
  Tutil.check_bool "torn-byte counter grew" true (torn_after > torn_before)

let suite =
  [
    ( "torn_wal",
      [
        Alcotest.test_case "random truncation points recover a prefix" `Slow torn_wal_prefixes;
        Alcotest.test_case "garbage tail ignored" `Quick garbage_tail;
        Alcotest.test_case "mid-file frame corruption recovers a prefix" `Quick
          corrupt_frame_checksum;
      ] );
  ]
