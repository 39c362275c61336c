(* Disk backends, buffer pool, WAL and heap files. *)

module Disk = Ode_storage.Disk
module Pool = Ode_storage.Buffer_pool
module Wal = Ode_storage.Wal
module Heap = Ode_storage.Heap
module Page = Ode_storage.Page
module Bigbytes = Ode_storage.Bigbytes

(* A page of [c]s, and a page's bytes as a string, to compare. *)
let page_of c = Bigbytes.of_string (String.make Page.size c)
let str = Bigbytes.to_string

(* -- disk -------------------------------------------------------------- *)

let mem_disk_rw () =
  let d = Disk.in_memory () in
  Tutil.check_int "empty" 0 (Disk.page_count d);
  let n, _ = Disk.allocate d in
  Tutil.check_int "first page" 0 n;
  let page = page_of 'q' in
  Disk.write_batch d [ (0, page) ];
  Alcotest.(check string) "read back" (str page) (str (Disk.read d 0))

let file_disk_rw () =
  let dir = Tutil.temp_dir "disk" in
  let path = Filename.concat dir "pages" in
  let d = Disk.open_file path in
  let n0, _ = Disk.allocate d in
  let n1, _ = Disk.allocate d in
  Tutil.check_int "sequential alloc" 1 (n1 - n0);
  let page = page_of 'z' in
  Disk.write_batch d [ (n1, page) ];
  Disk.close d;
  let d2 = Disk.open_file path in
  Tutil.check_int "count persisted" 2 (Disk.page_count d2);
  Alcotest.(check string) "data persisted" (str page) (str (Disk.read d2 n1));
  Disk.close d2

let file_pages path = (Unix.stat path).Unix.st_size / Page.size

(* A reserved page reaches the file only when it is written: reading it
   before raises rather than return zeros, and a file closed without
   writing it does not hold it. A batch that skips a reserved page writes
   it as a zero page, so the file has no holes. *)
let file_disk_reserves () =
  let path = Filename.concat (Tutil.temp_dir "disk") "pages" in
  let d = Disk.open_file path in
  let n, image = Disk.allocate d in
  Tutil.check_int "reserved" 1 (Disk.page_count d);
  Tutil.check_bool "zero image" true (String.for_all (fun c -> c = '\000') (str image));
  Tutil.check_int "nothing in the file" 0 (file_pages path);
  (match Disk.read d n with
  | _ -> Alcotest.fail "a reserved page that was never written was read"
  | exception Invalid_argument _ -> ());
  Disk.close d;
  let d = Disk.open_file path in
  Tutil.check_int "gone after reopen" 0 (Disk.page_count d);
  let skipped, _ = Disk.allocate d in
  let n, _ = Disk.allocate d in
  Disk.write_batch d [ (n, page_of 'b') ];
  Disk.close d;
  let d = Disk.open_file path in
  Tutil.check_int "both pages in the file" 2 (Disk.page_count d);
  Tutil.check_bool "skipped page is zeros" true
    (Bigbytes.sub_string (Disk.read d skipped) 0 Page.data_end = String.make Page.data_end '\000');
  Tutil.check_bool "written page" true (Bigbytes.get (Disk.read d n) 0 = 'b');
  Disk.close d

(* The journal [write_batch] streams is byte for byte the reference image
   of its batch (pages stamped, in page order), across several of the
   stream's chunks; and an armed [disk.journal.write] fault persists the
   same bytes of it: a prefix for a short write, one flipped bit for a
   flip. The journal is kept by skipping its clear. *)
let journal_stream_matches_image () =
  let module F = Ode_util.Failpoint in
  F.clear ();
  Fun.protect ~finally:F.clear @@ fun () ->
  let path = Filename.concat (Tutil.temp_dir "disk") "pages" in
  let d = Disk.open_file path in
  let pages = List.init 40 (fun _ -> fst (Disk.allocate d)) in
  (* Handed over in descending order; the journal holds them ascending. *)
  let batch =
    List.rev_map
      (fun n -> (n, Bigbytes.of_string (String.init Page.size (fun j -> Char.chr (((n * 31) + (j * 7)) land 0xff)))))
      pages
  in
  let journal () = In_channel.with_open_bin (path ^ ".journal") In_channel.input_all in
  let reference () =
    str (Disk.encode_journal (List.sort (fun (a, _) (b, _) -> Int.compare a b) batch))
  in
  F.arm "disk.journal.clear" ~policy:F.Always ~action:F.Skip_effect;
  Disk.write_batch d batch;
  let image = reference () in
  Tutil.check_int "spans several chunks" (12 + (40 * (4 + Page.size)) + 8) (String.length image);
  Tutil.check_bool "streamed journal = reference image" true (journal () = image);
  let faulted action =
    F.arm "disk.journal.write" ~policy:F.One_shot ~action;
    match Disk.write_batch d batch with
    | () -> Alcotest.fail "the armed journal write did not crash"
    | exception F.Crash _ -> journal ()
  in
  let keep = int_of_float (0.61 *. float_of_int (String.length image)) in
  Tutil.check_bool "short write keeps the image's prefix" true
    (faulted (F.Short_effect 0.61) = String.sub image 0 keep);
  let byte = 100_003 in
  let flipped = Bytes.of_string image in
  Bytes.set_uint8 flipped byte (Bytes.get_uint8 flipped byte lxor (1 lsl 5));
  Tutil.check_bool "flip mangles the image's bit" true
    (faulted (F.Flip_bit ((8 * byte) + 5)) = Bytes.to_string flipped);
  Disk.close d

(* A file cut short under an open disk fails the read of the page it cut
   as a short read, as it did when pages were read through [Unix.read];
   the page before it still reads whole. *)
let file_disk_short_read () =
  let path = Filename.concat (Tutil.temp_dir "disk") "pages" in
  let d = Disk.open_file path in
  let n0, _ = Disk.allocate d in
  let n1, _ = Disk.allocate d in
  Disk.write_batch d [ (n0, page_of 'a'); (n1, page_of 'b') ];
  Unix.truncate path (Page.size + 100);
  (match Disk.read d n1 with
  | _ -> Alcotest.fail "a page cut short was read"
  | exception Invalid_argument msg -> Tutil.check_string "reported" "disk: short read" msg);
  Tutil.check_bool "the whole page reads" true (Bigbytes.get (Disk.read d n0) 0 = 'a');
  Disk.close d

(* The pool's new frame is dirty: the file grows at the flush. *)
let pool_allocate_reaches_file_at_flush () =
  let path = Filename.concat (Tutil.temp_dir "disk") "pages" in
  let d = Disk.open_file path in
  let p = Pool.create ~capacity:4 d in
  let f = Pool.allocate p in
  Pool.unpin p f;
  Tutil.check_int "reserved" 1 (Pool.page_count p);
  Tutil.check_int "not yet in the file" 0 (file_pages path);
  Pool.flush_all p;
  Tutil.check_int "in the file after the flush" 1 (file_pages path);
  Disk.close d

(* A closed or crashed database frees its frames at once: every page its
   pools held reads length 0 after it, except a frame pinned across the
   release, which keeps its page; and a read through the stale handle is
   refused as a closed database, not attempted on a closed file. *)
let pool_frees_frames_with_its_handle finish () =
  let dir = Tutil.temp_dir "pool" in
  let db = Ode.Database.open_ dir in
  ignore (Ode.Database.define db "class acct { owner: string; balance: int; };");
  Ode.Database.create_cluster db "acct";
  Ode.Database.with_txn db (fun txn ->
      for i = 1 to 200 do
        ignore
          (Ode.Database.pnew txn "acct"
             [ ("owner", Ode_model.Value.Str (String.make 150 'o')); ("balance", Ode_model.Value.Int i) ])
      done);
  let pools =
    Ode.Types.[ Heap.pool db.kv_heap; Ode_index.Bptree.pool db.kv_dir; Ode_index.Bptree.pool db.idx ]
  in
  let pages =
    List.concat_map
      (fun p ->
        List.init (Pool.page_count p) (fun n ->
            let f = Pool.pin p n in
            Pool.unpin p f;
            Pool.data f))
      pools
  in
  Tutil.check_bool "several pages" true (List.length pages > 10);
  let heap = List.hd pools in
  let pinned = Pool.pin heap 1 in
  finish db;
  let freed = List.filter (fun b -> b != Pool.data pinned) pages in
  List.iter (fun b -> Tutil.check_int "a released frame's length" 0 (Bigbytes.length b)) freed;
  Tutil.check_int "the pinned frame keeps its page" Page.size (Bigbytes.length (Pool.data pinned));
  (match Bigbytes.get (List.hd freed) 0 with
  | _ -> Alcotest.fail "a released frame was read"
  | exception Invalid_argument _ -> ());
  Pool.unpin heap pinned;
  match Ode.Kv.get db Ode.Keys.meta with
  | _ -> Alcotest.fail "a read through the stale handle went through"
  | exception Ode_util.Ode_error.Error { cls = Resource; msg } ->
      Tutil.check_string "refused" "database is closed" msg

(* A page out of range is refused by both backends, by name, before the
   batch writes anything. *)
let disk_range_checks () =
  let d = Disk.in_memory () in
  (match Disk.read d 0 with
  | _ -> Alcotest.fail "read past end should raise"
  | exception Invalid_argument _ -> ());
  let refused d n =
    match Disk.write_batch d [ (n, page_of ' ') ] with
    | () -> Alcotest.failf "a write of unallocated page %d went through" n
    | exception Invalid_argument msg ->
        if not (Tutil.contains msg (Printf.sprintf "disk: page %d out of range" n)) then
          Alcotest.failf "refused for another reason: %s" msg
  in
  refused d 5;
  ignore (Disk.allocate d);
  refused d 1;
  let path = Filename.concat (Tutil.temp_dir "disk") "pages" in
  let f = Disk.open_file path in
  let n, _ = Disk.allocate f in
  refused f (n + 1);
  Tutil.check_int "nothing in the file" 0 ((Unix.stat path).Unix.st_size);
  Disk.close f

(* -- buffer pool -------------------------------------------------------- *)

let pool_hit_miss () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:2 d in
  let f = Pool.allocate p in
  Pool.unpin p f;
  let before = Ode_util.Stats.snapshot () in
  Pool.with_page p 0 (fun _ -> ());
  let after = Ode_util.Stats.snapshot () in
  Tutil.check_int "pool hit" 1 Ode_util.Stats.(get (diff after before) "pool_hits")

let pool_eviction_writes_back () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:2 d in
  for _ = 1 to 3 do
    let f = Pool.allocate p in
    Bigbytes.set (Pool.data f) 0 'D';
    Pool.mark_dirty p f;
    Pool.unpin p f
  done;
  (* Page 0 was evicted to make room; its dirty byte must be on disk. *)
  Tutil.check_bool "written back" true (Bigbytes.get (Disk.read d 0) 0 = 'D')

(* A pool's bookkeeping grows with the frames it holds, not with its
   capacity: a 65,536-page pool over an empty disk costs a few KiB, where
   tables sized to its capacity took 512 KiB. *)
let pool_sized_by_use () =
  let d = Disk.in_memory () in
  let words = Tutil.allocated_words (fun () -> ignore (Pool.create ~capacity:65_536 d)) in
  let bytes = words *. float (Sys.word_size / 8) in
  if bytes >= 4096. then Alcotest.failf "an empty 65536-page pool allocated %.0f bytes" bytes

(* A pool holds exactly its capacity once it has seen more pages than
   that. *)
let pool_evicts_at_capacity () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:64 d in
  for _ = 1 to 200 do
    Pool.unpin p (Pool.allocate p)
  done;
  for n = 0 to 199 do
    Pool.with_page p n ignore
  done;
  Tutil.check_int "resident frames" 64 (Pool.resident p)

let pool_exhaustion () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:1 d in
  let f = Pool.allocate p in
  (match Pool.allocate p with
  | _ -> Alcotest.fail "expected Pool_exhausted"
  | exception Pool.Pool_exhausted -> ());
  Pool.unpin p f

let pool_flush_all () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:4 d in
  let f = Pool.allocate p in
  Bigbytes.set (Pool.data f) 10 'F';
  Pool.mark_dirty p f;
  Pool.unpin p f;
  Pool.flush_all p;
  Tutil.check_bool "flushed" true (Bigbytes.get (Disk.read d 0) 10 = 'F')

(* A miss on a full pool reads the page into the evicted frame's buffer:
   cycling 64 pages of a file through 4 frames, every access a miss,
   allocates far less per miss than the 513 words of a fresh page. *)
let pool_miss_reuses_victim () =
  let path = Filename.concat (Tutil.temp_dir "reuse") "pages" in
  let d = Disk.open_file path in
  let p = Pool.create ~capacity:4 d in
  let pages = 64 in
  for _ = 1 to pages do
    let f = Pool.allocate p in
    Pool.mark_dirty p f;
    Pool.unpin p f
  done;
  Pool.flush_all p;
  let cycle () =
    for n = 0 to pages - 1 do
      let f = Pool.pin p n in
      Pool.unpin p f
    done
  in
  cycle ();
  let misses () = Ode_util.Stats.(get (snapshot ()) "pool_misses") in
  let m0 = misses () in
  let w =
    Tutil.allocated_words (fun () ->
        for _ = 1 to 4 do
          cycle ()
        done)
  in
  let m = misses () - m0 in
  Tutil.check_int "every access misses" (4 * pages) m;
  let per_miss = w /. float m in
  if per_miss >= 100.0 then Alcotest.failf "%.0f words allocated per miss" per_miss;
  Disk.close d

(* Resident pages live outside the OCaml heap: reading 2,048 pages of a
   file into a pool grows the major heap by a few words a frame (the
   page's custom block and the pool's bookkeeping), where a [Bytes] page
   counted 517. *)
let pool_frames_off_heap () =
  let pages = 2048 in
  let path = Filename.concat (Tutil.temp_dir "offheap") "pages" in
  let d = Disk.open_file path in
  let p = Pool.create ~capacity:pages d in
  for _ = 1 to pages do
    Pool.unpin p (Pool.allocate p)
  done;
  Pool.flush_all p;
  Pool.release p;
  let p = Pool.create ~capacity:pages d in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).heap_words in
  for n = 0 to pages - 1 do
    Pool.with_page p n ignore
  done;
  Gc.full_major ();
  let after = (Gc.quick_stat ()).heap_words in
  Tutil.check_int "every page resident" pages (Pool.resident p);
  let per_frame = float (after - before) /. float pages in
  if per_frame >= 64. then Alcotest.failf "the heap grew %.0f words a resident frame" per_frame;
  Disk.close d

let pool_no_flush_section () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:2 d in
  let dirty_page () =
    let f = Pool.allocate p in
    Bigbytes.set (Pool.data f) 0 'D';
    Pool.mark_dirty p f;
    Pool.unpin p f
  in
  Pool.with_no_flush p (fun () ->
      for _ = 1 to 3 do
        dirty_page ()
      done;
      Tutil.check_int "over capacity inside" 3 (Pool.resident p);
      Tutil.check_bool "nothing written back inside" true (Bigbytes.get (Disk.read d 0) 0 = '\000'));
  Tutil.check_int "trimmed on exit" 2 (Pool.resident p);
  Tutil.check_bool "written back on exit" true (Bigbytes.get (Disk.read d 0) 0 = 'D')

(* -- wal ------------------------------------------------------------------ *)

let commit ?(trace = 0) ts writes = Wal.Commit { trace; ts; writes = Array.of_list writes }

let wal_records =
  [
    commit 1 [ ("key-a", Wal.Put "payload-a"); ("key-b", Wal.Del) ];
    commit ~trace:(-5) 2 [ ("k", Wal.Put (String.make 300 'p')) ];
    commit 3 [];
    Wal.Checkpoint 3;
  ]

let wal_roundtrip_memory () =
  let w = Wal.in_memory () in
  List.iter (Wal.append w) wal_records;
  Wal.sync w;
  let got = ref [] in
  Wal.replay w (fun r -> got := r :: !got);
  Alcotest.(check int) "count" (List.length wal_records) (List.length !got);
  Tutil.check_bool "order and content" true (List.rev !got = wal_records)

let wal_roundtrip_file () =
  let dir = Tutil.temp_dir "wal" in
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_file ~base:0 path in
  List.iter (Wal.append w) wal_records;
  Wal.sync w;
  Wal.close w;
  let w2 = Wal.open_file ~base:0 path in
  let got = ref [] in
  Wal.replay w2 (fun r -> got := r :: !got);
  Tutil.check_bool "persisted" true (List.rev !got = wal_records);
  Wal.close w2

(* A sync writes its batch from the pending buffer, which keeps its
   capacity: with no observer, syncing a 1 MiB batch allocates a few
   words, where a copy of it would take 131,072. *)
let wal_sync_allocates_o1 () =
  let dir = Tutil.temp_dir "wal" in
  let w = Wal.open_file ~base:0 (Filename.concat dir "wal.log") in
  let batch () =
    for i = 1 to 16 do
      Wal.append w (commit i [ ("k", Wal.Put (String.make 65_000 'p')) ])
    done
  in
  (* A first batch grows the buffer to its size, which it then keeps. *)
  batch ();
  Wal.sync w;
  batch ();
  let size = Wal.size_bytes w in
  let words = Tutil.allocated_words (fun () -> Wal.sync w) in
  Tutil.check_int "the batch written" size (Wal.size_bytes w);
  Wal.close w;
  if words > 256. then Alcotest.failf "sync of a %d-byte batch allocated %.0f words" (size / 2) words

(* The log is read frame by frame through one buffer, never whole: an
   open of a 4 MiB log of 64 KiB frames allocates under 32k words, where
   reading it into one string takes 524,288. *)
let wal_open_reads_frame_by_frame () =
  let path = Filename.concat (Tutil.temp_dir "wal") "wal.log" in
  let w = Wal.open_file ~base:0 path in
  for i = 1 to 64 do
    Wal.append w (commit i [ ("k", Wal.Put (String.make (65_536 - 32) 'p')) ]);
    Wal.sync w
  done;
  Wal.close w;
  let size = (Unix.stat path).Unix.st_size in
  if size < 4_190_000 then Alcotest.failf "a %d-byte log" size;
  let w = ref None in
  let words = Tutil.allocated_words (fun () -> w := Some (Wal.open_file ~base:0 path)) in
  let w = Option.get !w in
  Tutil.check_int "every commit counted" 64 (Wal.last_lsn w);
  let n = ref 0 in
  Wal.replay w (fun _ -> incr n);
  Tutil.check_int "every commit replayed" 64 !n;
  Wal.close w;
  if words >= 32_768. then Alcotest.failf "open of a %d-byte log allocated %.0f words" size words

let wal_torn_tail_ignored () =
  let dir = Tutil.temp_dir "wal" in
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_file ~base:0 path in
  Wal.append w (commit 1 [ ("k", Wal.Put "v") ]);
  Wal.sync w;
  Wal.close w;
  (* Simulate a torn write: garbage appended after the intact frame. *)
  let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
  Out_channel.output_string oc "\042\000\000\000GARBAGE";
  Out_channel.close oc;
  let w2 = Wal.open_file ~base:0 path in
  let got = ref [] in
  Wal.replay w2 (fun r -> got := r :: !got);
  Tutil.check_int "only intact frame" 1 (List.length !got);
  (* And new appends after reopening are readable. *)
  Wal.append w2 (commit 2 [ ("k", Wal.Del) ]);
  Wal.sync w2;
  let got2 = ref [] in
  Wal.replay w2 (fun r -> got2 := r :: !got2);
  Tutil.check_int "append after truncation" 2 (List.length !got2);
  Wal.close w2

let write_frames bodies =
  let path = Filename.concat (Tutil.temp_dir "wal") "wal.log" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun body -> Out_channel.output_string oc (Wal.frame body)) bodies);
  path

let corrupt what f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" what
  | exception Ode_util.Codec.Corrupt _ -> ()

let replayed path =
  let w = Wal.open_file ~base:0 path in
  Fun.protect ~finally:(fun () -> Wal.close w) (fun () -> Wal.replay w ignore)

(* One record layout: a Commit body always carries the trace id and the
   commit timestamp. A checksummed frame holding only the tag and a trace
   id is corrupt, not a commit at timestamp 0. *)
let wal_short_commit_corrupt () =
  let body =
    let b = Buffer.create 16 in
    Ode_util.Codec.put_u8 b 6;
    Ode_util.Codec.put_svarint b 7;
    Buffer.contents b
  in
  corrupt "a commit without its timestamp" (fun () -> replayed (write_frames [ body ]))

(* A checksummed frame whose record does not fill it exactly is corrupt:
   a Checkpoint at open, which reads its LSN, a Commit at replay, whose
   operations run to the end of the frame. *)
let wal_record_fills_its_frame () =
  corrupt "open" (fun () ->
      Wal.close (Wal.open_file ~base:0 (write_frames [ Wal.encode_record (Wal.Checkpoint 1) ^ "x" ])));
  let commit_body = Wal.encode_record (commit 1 [ ("k", Wal.Put "v") ]) in
  corrupt "replay" (fun () -> replayed (write_frames [ commit_body ^ "x" ]));
  corrupt "decode" (fun () ->
      ignore (Wal.decode_record (Wal.encode_record (Wal.Checkpoint 4) ^ "\000")))

(* A commit's operations are framed in strictly ascending key order, the
   order [Store.apply_writes] applies them in; any other order is
   corrupt. *)
let wal_ops_in_key_order () =
  let decoded writes () = ignore (Wal.decode_record (Wal.encode_record (commit 1 writes))) in
  corrupt "descending" (decoded [ ("b", Wal.Del); ("a", Wal.Del) ]);
  corrupt "repeated" (decoded [ ("a", Wal.Del); ("a", Wal.Del) ]);
  corrupt "empty key" (decoded [ ("", Wal.Del) ])

(* A log of the per-operation layout of earlier builds (tags 1-5: Begin,
   Commit, Put, Delete, Checkpoint, with fixed-width xids) is refused at
   open, before anything is replayed from it, and the refused open closes
   the log file. *)
let wal_old_layout_refused () =
  let module C = Ode_util.Codec in
  let old tag fields =
    let b = Buffer.create 32 in
    C.put_u8 b tag;
    C.put_int b 1 (* the xid *);
    List.iter (fun f -> f b) fields;
    Buffer.contents b
  in
  let opens bodies () = Wal.close (Wal.open_file ~base:0 (write_frames bodies)) in
  let put = old 3 [ (fun b -> C.put_string b "k"); (fun b -> C.put_string b "v") ]
  and commit = old 2 [ (fun b -> C.put_int b 0); (fun b -> C.put_int b 1) ] in
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  corrupt "old-layout log" (opens [ old 1 []; put; commit ]);
  List.iter (fun tag -> corrupt (Printf.sprintf "tag %d" tag) (opens [ old tag [] ])) [ 1; 2; 3; 4; 5 ];
  Tutil.check_int "a refused log leaves no descriptor open" before (fds ())

let wal_reset () =
  let w = Wal.in_memory () in
  Wal.append w (commit 1 []);
  Wal.sync w;
  Wal.reset w;
  let n = ref 0 in
  Wal.replay w (fun _ -> incr n);
  Tutil.check_int "empty after reset" 0 !n

let wal_unsynced_not_replayed () =
  let w = Wal.in_memory () in
  Wal.append w (commit 1 []);
  (* no sync *)
  let n = ref 0 in
  Wal.replay w (fun _ -> incr n);
  Tutil.check_int "pending buffer invisible" 0 !n

let wal_pending_commits () =
  let w = Wal.in_memory () in
  Tutil.check_int "fresh log has none" 0 (Wal.pending_commits w);
  Wal.append w (Wal.Checkpoint 0);
  Tutil.check_int "a checkpoint record doesn't pend" 0 (Wal.pending_commits w);
  Wal.append w (commit 1 [ ("a", Wal.Put "x") ]);
  Tutil.check_int "commit pends" 1 (Wal.pending_commits w);
  Wal.append w (commit 2 []);
  Tutil.check_int "second commit pends" 2 (Wal.pending_commits w);
  let before = Ode_util.Stats.snapshot () in
  Wal.sync w;
  let d = Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) before in
  Tutil.check_int "one ack clears the batch" 0 (Wal.pending_commits w);
  Tutil.check_int "one physical sync" 1 (Ode_util.Stats.get d "wal_syncs");
  Tutil.check_int "a batch of 2 saved 1 sync" 1 (Ode_util.Stats.get d "wal_sync_saved");
  (* An empty ack is still a sync, but saves nothing and grows no group. *)
  let before = Ode_util.Stats.snapshot () in
  Wal.sync w;
  let d = Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) before in
  Tutil.check_int "empty sync saves nothing" 0 (Ode_util.Stats.get d "wal_sync_saved")

let wal_reset_clears_pending () =
  let w = Wal.in_memory () in
  Wal.append w (commit 3 []);
  Tutil.check_int "pending before reset" 1 (Wal.pending_commits w);
  Wal.reset w;
  Tutil.check_int "reset discards pending" 0 (Wal.pending_commits w)

(* -- frames name their LSNs ---------------------------------------------------

   The log's frames are its only record of LSNs: each must continue the
   one before it, and the first must not leave a gap after the checkpoint
   LSN the log is opened with. *)

let opens ~base records =
  let w = Wal.open_file ~base (write_frames (List.map Wal.encode_record records)) in
  Fun.protect ~finally:(fun () -> Wal.close w) (fun () -> Wal.last_lsn w)

let wal_refuses_discontinuous_frame () =
  let refused what records = corrupt what (fun () -> ignore (opens ~base:0 records)) in
  refused "a skipped commit" [ commit 1 []; commit 3 [] ];
  refused "a repeated commit" [ commit 1 []; commit 1 [] ];
  refused "a commit behind" [ commit 1 []; commit 2 []; commit 1 [] ];
  refused "a checkpoint ahead" [ commit 1 []; Wal.Checkpoint 2 ];
  refused "a checkpoint behind" [ commit 1 []; commit 2 []; Wal.Checkpoint 1 ];
  Tutil.check_int "continuous frames open at the last one's LSN" 2
    (opens ~base:0 [ commit 1 []; Wal.Checkpoint 1; commit 2 []; Wal.Checkpoint 2 ])

let wal_refuses_gap_at_start () =
  corrupt "a first commit past base + 1" (fun () -> ignore (opens ~base:0 [ commit 3 [] ]));
  corrupt "a first checkpoint past base" (fun () -> ignore (opens ~base:2 [ Wal.Checkpoint 3 ]));
  Tutil.check_int "a first commit at base + 1" 3 (opens ~base:2 [ commit 3 [] ]);
  Tutil.check_int "an empty log opens at its base" 7 (opens ~base:7 []);
  (* Frames a lost truncation left: at or below the base, and counted once. *)
  Tutil.check_int "checkpointed frames" 2 (opens ~base:2 [ commit 1 []; commit 2 []; Wal.Checkpoint 2 ]);
  Tutil.check_int "checkpointed frames, then more" 3
    (opens ~base:2 [ commit 1 []; commit 2 []; Wal.Checkpoint 2; commit 3 [] ])

(* The open reads each commit frame's LSN where the frame lies, two
   varints, and checks its checksum in place, allocating nothing for
   either: over 20,000 small commits it allocates its 64 KiB read window
   and little else (8,829 words), where a boxed hash per frame took 3
   words a frame more. *)
let wal_open_reads_lsns_in_place () =
  let frames = 20_000 in
  let path = write_frames (List.init frames (fun i -> Wal.encode_record (commit (i + 1) [ ("k", Wal.Del) ]))) in
  let w = ref None in
  let words = Tutil.allocated_words (fun () -> w := Some (Wal.open_file ~base:0 path)) in
  let w = Option.get !w in
  Tutil.check_int "every commit's LSN" frames (Wal.last_lsn w);
  Wal.close w;
  if words >= float frames +. 8192. then
    Alcotest.failf "open of %d commit frames allocated %.0f words" frames words

(* -- the streamed log against a scan of the whole file ----------------------

   Random logs, damaged: frames of commits (some over the 64 KiB read-ahead)
   and checkpoints, opened at a checkpoint LSN that is either the one the
   frames start from or one a lost truncation left them behind, with torn
   tails and flipped bytes. [open_file], [replay] and [tail_from] read the
   file frame by frame; the reference reads it whole with [Wal.scan] and
   takes each LSN from its frame. They must agree on the intact end, the
   LSN, the records and every suffix, before and after one more synced
   commit. *)

type wal_case = {
  base : int; (* the LSN before the log's first frame *)
  ops : [ `Commit of (string * Wal.op) list | `Checkpoint ] list;
  checkpoint : int; (* which LSN the log is opened at: base or a checkpoint's *)
  damage : [ `Cut of float | `Flip of float * int ] list;
}

let wal_case_gen =
  let open QCheck.Gen in
  let payload =
    frequency [ (6, string_size ~gen:printable (0 -- 300)); (1, map (fun n -> String.make n 'p') (20_000 -- 70_000)) ]
  in
  let writes =
    map
      (fun kvs -> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) kvs)
      (list_size (0 -- 3)
         (pair (string_size ~gen:(char_range 'a' 'e') (1 -- 2)) (opt payload)))
  in
  let op =
    frequency
      [
        (4, map (fun ws -> `Commit (List.map (fun (k, v) -> (k, match v with Some p -> Wal.Put p | None -> Wal.Del)) ws)) writes);
        (1, return `Checkpoint);
      ]
  in
  let damage = oneof [ map (fun f -> `Cut f) (float_bound_exclusive 1.); map2 (fun f b -> `Flip (f, b)) (float_bound_exclusive 1.) (0 -- 7) ] in
  map
    (fun (base, ops, checkpoint, damage) -> { base; ops; checkpoint; damage })
    (quad (0 -- 5) (list_size (0 -- 12) op) nat (list_size (0 -- 2) damage))

(* The case's log as written, and the checkpoint LSN it is opened at. *)
let wal_case_bytes c =
  let b = Buffer.create 4096 in
  let lsn = ref c.base and checkpoints = ref [ c.base ] in
  List.iter
    (function
      | `Commit writes ->
          incr lsn;
          Buffer.add_string b (Wal.frame (Wal.encode_record (commit ~trace:!lsn !lsn writes)))
      | `Checkpoint ->
          checkpoints := !lsn :: !checkpoints;
          Buffer.add_string b (Wal.frame (Wal.encode_record (Wal.Checkpoint !lsn))))
    c.ops;
  let s = Bytes.of_string (Buffer.contents b) in
  let s =
    List.fold_left
      (fun s d ->
        let len = Bytes.length s in
        match d with
        | `Cut f -> Bytes.sub s 0 (int_of_float (f *. float len))
        | `Flip (f, bit) ->
            if len > 0 then begin
              let i = int_of_float (f *. float len) in
              Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl bit)))
            end;
            s)
      s c.damage
  in
  (Bytes.to_string s, List.nth !checkpoints (c.checkpoint mod List.length !checkpoints))

(* What [Wal.scan] over the whole log [s] finds, opened at the checkpoint
   LSN [base]: the intact end, the LSN, the records, and the suffix after
   each LSN from [base] on. Every LSN is the one its frame names. *)
let wal_reference s base =
  let recs = ref [] in
  let intact = Wal.scan s (fun r -> recs := r :: !recs) in
  let records = List.rev !recs in
  let named = function Wal.Commit { ts; _ } -> ts | Wal.Checkpoint l -> l in
  let lsn = max base (List.fold_left (fun _ r -> named r) base records) in
  let tail n =
    if n < base || n > lsn then None
    else
      let cut, _ =
        List.fold_left
          (fun (cut, off) r ->
            let fend = off + String.length (Wal.frame (Wal.encode_record r)) in
            ((if named r <= n then fend else cut), fend))
          (0, 0) records
      in
      Some (String.sub s cut (intact - cut))
  in
  (intact, lsn, records, tail)

let wal_agrees path w base =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let intact, lsn, records, tail = wal_reference s base in
  let got = ref [] in
  Wal.replay w (fun r -> got := r :: !got);
  Wal.size_bytes w = intact
  && Wal.last_lsn w = lsn
  && Wal.base_lsn w = base
  && List.rev !got = records
  &&
  let lo = min base lsn - 1 and hi = max base lsn + 1 in
  List.for_all (fun n -> Wal.tail_from w ~lsn:n = tail n) (List.init (hi - lo + 1) (fun i -> lo + i))

let prop_wal_streamed_matches_scan =
  QCheck.Test.make ~name:"streamed log matches a whole-file scan" ~count:150
    (QCheck.make wal_case_gen) (fun c ->
      let path = Filename.concat (Tutil.temp_dir "walp") "wal.log" in
      let bytes, base = wal_case_bytes c in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      let w = Wal.open_file ~base path in
      Fun.protect ~finally:(fun () -> Wal.close w) (fun () ->
          let intact, _, _, _ = wal_reference bytes base in
          (Unix.stat path).Unix.st_size = intact
          && wal_agrees path w base
          &&
          (Wal.append w (commit (Wal.last_lsn w + 1) [ ("z", Wal.Put (String.make 70_000 'z')) ]);
           Wal.sync w;
           wal_agrees path w base)))

(* -- heap ------------------------------------------------------------------ *)

let heap_mem () = Heap.attach (Pool.create ~capacity:64 (Disk.in_memory ()))

let heap_basic () =
  let h = heap_mem () in
  let r1 = Heap.insert h "alpha" in
  let r2 = Heap.insert h "beta" in
  Alcotest.(check (option string)) "get 1" (Some "alpha") (Heap.get h r1);
  Alcotest.(check (option string)) "get 2" (Some "beta") (Heap.get h r2);
  Tutil.check_int "count" 2 (Heap.record_count h);
  Tutil.check_bool "delete" true (Heap.delete h r1);
  Alcotest.(check (option string)) "gone" None (Heap.get h r1);
  Tutil.check_int "count after delete" 1 (Heap.record_count h)

let heap_large_records () =
  let h = heap_mem () in
  let big = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let r = Heap.insert h big in
  Alcotest.(check (option string)) "chunked roundtrip" (Some big) (Heap.get h r);
  let bigger = String.make 50_000 'Q' in
  let r2 = Heap.update h r bigger in
  Alcotest.(check (option string)) "chunked update" (Some bigger) (Heap.get h r2);
  Tutil.check_bool "delete frees" true (Heap.delete h r2);
  Alcotest.(check (option string)) "gone" None (Heap.get h r2)

let heap_update_moves () =
  let h = heap_mem () in
  let r = Heap.insert h "small" in
  (* Fill the page so growth forces relocation. *)
  for _ = 1 to 30 do
    ignore (Heap.insert h (String.make 120 'f'))
  done;
  let r' = Heap.update h r (String.make 3000 'G') in
  Alcotest.(check (option string)) "moved value" (Some (String.make 3000 'G')) (Heap.get h r')

let heap_iter () =
  let h = heap_mem () in
  let data = [ "one"; "two"; "three"; String.make 9000 'L' ] in
  List.iter (fun d -> ignore (Heap.insert h d)) data;
  let seen = ref [] in
  Heap.iter h (fun _ d -> seen := d :: !seen);
  Alcotest.(check int) "all records, chunks hidden" 4 (List.length !seen);
  Tutil.check_bool "payloads intact" true
    (List.sort compare !seen = List.sort compare data)

let heap_persistence () =
  let dir = Tutil.temp_dir "heap" in
  let path = Filename.concat dir "data.heap" in
  let d = Disk.open_file path in
  let pool = Pool.create ~capacity:32 d in
  let h = Heap.attach pool in
  let r = Heap.insert h "persistent" in
  let big = String.make 12_345 'B' in
  let rbig = Heap.insert h big in
  Heap.flush h;
  Disk.close d;
  let d2 = Disk.open_file path in
  let h2 = Heap.attach (Pool.create ~capacity:32 d2) in
  Alcotest.(check (option string)) "small persisted" (Some "persistent") (Heap.get h2 r);
  Alcotest.(check (option string)) "large persisted" (Some big) (Heap.get h2 rbig);
  Tutil.check_int "count rebuilt" 2 (Heap.record_count h2);
  Disk.close d2

(* A data page whose bytes pass their checksum but not the slotted-page
   layout check is damage: attach reports it by file and page and leaves
   it in the file as it is, rather than reset it to an empty page. *)
let heap_bad_page_reported () =
  let path = Filename.concat (Tutil.temp_dir "heap") "data.heap" in
  let d = Disk.open_file path in
  let h = Heap.attach (Pool.create ~capacity:8 d) in
  ignore (Heap.insert h "record");
  Heap.flush h;
  Disk.write_batch d [ (1, page_of '\xff') ];
  let image = Disk.read d 1 in
  Disk.close d;
  let d = Disk.open_file path in
  (match Heap.attach (Pool.create ~capacity:8 d) with
  | _ -> Alcotest.fail "a malformed heap page was accepted"
  | exception Ode_util.Codec.Corrupt msg ->
      if not (Tutil.contains msg (path ^ ": page 1: ")) then Alcotest.failf "reported as %S" msg);
  Alcotest.(check string) "the page is left as it was" (str image) (str (Disk.read d 1));
  Disk.close d

let prop_heap_model =
  let ops_gen =
    QCheck.Gen.(
      list_size (int_bound 150)
        (frequency
           [
             (6, map (fun n -> `Insert (n mod 6000)) nat);
             (2, map (fun i -> `Delete i) (int_bound 60));
             (2, map2 (fun i n -> `Update (i, n mod 6000)) (int_bound 60) nat);
           ]))
  in
  QCheck.Test.make ~name:"heap matches model" ~count:60 (QCheck.make ops_gen) (fun ops ->
      let h = heap_mem () in
      let model = Hashtbl.create 16 in
      let handles = Array.make 64 None in
      let tag = ref 0 in
      List.iter
        (fun op ->
          incr tag;
          match op with
          | `Insert len ->
              let data = Printf.sprintf "%d:%s" !tag (String.make len 'd') in
              let r = Heap.insert h data in
              let slot = !tag mod 64 in
              (match handles.(slot) with
              | Some (old_r, _) when Hashtbl.mem model old_r -> ()
              | _ -> ());
              handles.(slot) <- Some (r, data);
              Hashtbl.replace model r data
          | `Delete i -> (
              match handles.(i) with
              | Some (r, _) when Hashtbl.mem model r ->
                  ignore (Heap.delete h r);
                  Hashtbl.remove model r;
                  handles.(i) <- None
              | _ -> ())
          | `Update (i, len) -> (
              match handles.(i) with
              | Some (r, _) when Hashtbl.mem model r ->
                  let data = Printf.sprintf "%d:%s" !tag (String.make len 'u') in
                  let r' = Heap.update h r data in
                  Hashtbl.remove model r;
                  Hashtbl.replace model r' data;
                  handles.(i) <- Some (r', data)
              | _ -> ()))
        ops;
      Hashtbl.fold (fun r data ok -> ok && Heap.get h r = Some data) model true
      && Heap.record_count h = Hashtbl.length model)

let suite =
  [
    ( "disk",
      [
        Alcotest.test_case "memory read/write" `Quick mem_disk_rw;
        Alcotest.test_case "file read/write persists" `Quick file_disk_rw;
        Alcotest.test_case "range checks" `Quick disk_range_checks;
        Alcotest.test_case "reserved pages reach the file when written" `Quick file_disk_reserves;
        Alcotest.test_case "journal streams its reference image" `Quick journal_stream_matches_image;
        Alcotest.test_case "a page cut short is a short read" `Quick file_disk_short_read;
      ] );
    ( "buffer_pool",
      [
        Alcotest.test_case "hit/miss accounting" `Quick pool_hit_miss;
        Alcotest.test_case "eviction writes back dirty pages" `Quick pool_eviction_writes_back;
        Alcotest.test_case "exhaustion when all pinned" `Quick pool_exhaustion;
        Alcotest.test_case "sized by use, not capacity" `Quick pool_sized_by_use;
        Alcotest.test_case "evicts at its capacity" `Quick pool_evicts_at_capacity;
        Alcotest.test_case "flush_all" `Quick pool_flush_all;
        Alcotest.test_case "no-flush section" `Quick pool_no_flush_section;
        Alcotest.test_case "a miss reuses the victim's buffer" `Quick pool_miss_reuses_victim;
        Alcotest.test_case "resident frames off the OCaml heap" `Quick pool_frames_off_heap;
        Alcotest.test_case "allocated pages reach the file at flush" `Quick
          pool_allocate_reaches_file_at_flush;
        Alcotest.test_case "a crash frees the frames" `Quick
          (pool_frees_frames_with_its_handle Ode.Database.crash);
        Alcotest.test_case "a close frees the frames" `Quick
          (pool_frees_frames_with_its_handle Ode.Database.close);
      ] );
    ( "wal",
      [
        Alcotest.test_case "memory roundtrip" `Quick wal_roundtrip_memory;
        Alcotest.test_case "file roundtrip" `Quick wal_roundtrip_file;
        Alcotest.test_case "torn tail ignored" `Quick wal_torn_tail_ignored;
        Alcotest.test_case "sync allocates O(1) words" `Quick wal_sync_allocates_o1;
        Alcotest.test_case "open reads frame by frame" `Quick wal_open_reads_frame_by_frame;
        Alcotest.test_case "short commit record is corrupt" `Quick wal_short_commit_corrupt;
        Alcotest.test_case "record fills its frame" `Quick wal_record_fills_its_frame;
        Alcotest.test_case "operations in key order" `Quick wal_ops_in_key_order;
        Alcotest.test_case "old-layout log refused at open" `Quick wal_old_layout_refused;
        Alcotest.test_case "reset empties" `Quick wal_reset;
        Alcotest.test_case "unsynced appends invisible" `Quick wal_unsynced_not_replayed;
        Alcotest.test_case "pending commits acked by one sync" `Quick wal_pending_commits;
        Alcotest.test_case "reset clears pending commits" `Quick wal_reset_clears_pending;
        Alcotest.test_case "a discontinuous frame is refused" `Quick wal_refuses_discontinuous_frame;
        Alcotest.test_case "a gap at the log's start is refused" `Quick wal_refuses_gap_at_start;
        Alcotest.test_case "open reads frame LSNs in place" `Quick wal_open_reads_lsns_in_place;
      ] );
    ( "heap",
      [
        Alcotest.test_case "insert/get/delete" `Quick heap_basic;
        Alcotest.test_case "large records chunk" `Quick heap_large_records;
        Alcotest.test_case "update may move" `Quick heap_update_moves;
        Alcotest.test_case "iter reassembles" `Quick heap_iter;
        Alcotest.test_case "persists across reopen" `Quick heap_persistence;
        Alcotest.test_case "a malformed page is reported, not reset" `Quick heap_bad_page_reported;
      ] );
    Tutil.qsuite "heap.props" [ prop_heap_model ];
    Tutil.qsuite "wal.props" [ prop_wal_streamed_matches_scan ];
  ]
