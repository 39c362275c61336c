(* Page-granular storage backends.

   The file backend stamps an FNV-1a checksum into the trailer of every page
   it writes and verifies it on every read, so torn or bit-flipped pages are
   detected (Codec.Corrupt, naming the file and page) instead of silently
   decoded. Every write is a batch through a double-write journal: the batch
   is first written and fsynced to a side file, then applied in place, so a
   crash anywhere in the middle leaves either the journal (replayed at open)
   or the data file intact — never a mix of old and new pages. The journal
   is the only repair: a damaged page found later is reported, and stays in
   the file as it is.

   A page reaches the file only when a flush writes it. [allocate] only
   reserves the next page number in memory; the batch that first writes a
   reserved page extends the file, journalled like any other. So after a
   crash the file ends at the last flush, and replay reuses the page
   numbers of the pages it lost instead of leaving them behind as zero
   pages that nothing references.

   Failpoint sites cover every side-effecting step so the crash-torture
   harness can kill the process between any two syscalls. *)

module Stats = Ode_util.Stats
module Codec = Ode_util.Codec
module Failpoint = Ode_util.Failpoint

(* [pages] counts the reserved pages, [written] those the file holds: pages
   [written, pages) are reserved and have never been written. *)
type file = { fd : Unix.file_descr; journal : string; mutable pages : int; mutable written : int }
type mem = { mutable arr : Page.t array; mutable used : int }

type backend =
  | File of file
  | Memory of mem

(* A disk belongs to one database, which is used from one domain, so it
   takes no lock. *)
type t = { backend : backend; name : string }

let fp_write = Failpoint.site "disk.write"
let fp_sync = Failpoint.site "disk.sync"
let fp_journal_write = Failpoint.site "disk.journal.write"
let fp_journal_clear = Failpoint.site "disk.journal.clear"

let c_pages_read = Stats.counter "pages_read"
let c_pages_written = Stats.counter "pages_written"
let c_checksum_failures = Stats.counter ~group:Stats.Recovery "checksum_failures"
let c_journal_pages_restored = Stats.counter ~group:Stats.Recovery "journal_pages_restored"
let c_io_retries = Stats.counter ~group:Stats.Recovery "io_retries"

(* -- resilient syscall wrappers ------------------------------------------ *)

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      Stats.incr c_io_retries;
      retry f

(* Transfers go straight between the file at offset [off] and the [len]
   bytes at [pos] of [buf], with no seek and no intermediate copy. A read
   returns the count it got: short only at end of file. *)
let read_at fd buf ~pos ~len ~off =
  let rec go d =
    if d >= len then d
    else
      let k = retry (fun () -> Bigbytes.pread fd buf ~pos:(pos + d) ~len:(len - d) ~off:(off + d)) in
      if k = 0 then d else go (d + k)
  in
  go 0

let write_at fd buf ~pos ~len ~off =
  let rec go d =
    if d < len then begin
      let k = retry (fun () -> Bigbytes.pwrite fd buf ~pos:(pos + d) ~len:(len - d) ~off:(off + d)) in
      if k = 0 then failwith "disk: write returned 0 bytes (device full?)";
      go (d + k)
    end
  in
  go 0

let pread fd buf off =
  if read_at fd buf ~pos:0 ~len:Page.size ~off < Page.size then invalid_arg "disk: short read"

let pwrite ?(len = Page.size) fd buf off = write_at fd buf ~pos:0 ~len ~off

(* -- page checksums ------------------------------------------------------- *)

let checksum_off = Page.data_end

let page_sum page = Bigbytes.fnv64_feed Codec.fnv64_init page ~pos:0 ~len:checksum_off
let stamp page = Bigbytes.set_int64_le page checksum_off (page_sum page)
let checksum_ok page = Int64.equal (Bigbytes.get_int64_le page checksum_off) (page_sum page)

(* -- fault interpretation -------------------------------------------------
   A faulted write simulates a crash in the middle of the syscall: persist a
   prefix, or a corrupted image, then die. [Skip_effect] pretends the write
   happened (lying hardware) and keeps running. *)

(* What a write of [len] bytes persists under a fault: its first [keep]
   bytes, byte [flip] (if any) xored with [mask]; then the process dies if
   [dies]. *)
type cut = { keep : int; flip : int; mask : int; dies : bool }

let whole len = { keep = len; flip = -1; mask = 0; dies = false }

let cut_of len = function
  | Failpoint.Crash_site -> { (whole 0) with dies = true }
  | Failpoint.Short_effect frac ->
      { (whole (max 0 (min (len - 1) (int_of_float (frac *. float_of_int len))))) with dies = true }
  | Failpoint.Flip_bit bit -> { keep = len; flip = bit / 8 mod len; mask = 1 lsl (bit mod 8); dies = true }
  | Failpoint.Skip_effect -> whole 0

(* Mangle [buf], which holds the bytes [at, at + len) of the write, as
   [cut] says. *)
let flip_in cut buf ~at ~len =
  if cut.flip >= at && cut.flip < at + len then
    let i = cut.flip - at in
    Bigbytes.set buf i (Char.chr (Char.code (Bigbytes.get buf i) lxor cut.mask))

let copy page =
  let c = Bigbytes.create Page.size in
  Bigbytes.blit page 0 c 0 Page.size;
  c

let faulted_write site fd buf off act =
  let cut = cut_of Page.size act in
  if cut.keep > 0 then begin
    let buf = if cut.flip < 0 then buf else copy buf in
    flip_in cut buf ~at:0 ~len:Page.size;
    pwrite ~len:cut.keep fd buf off
  end;
  if cut.dies then Failpoint.crash site

(* -- double-write journal -------------------------------------------------
   Format: "ODEDWJ01" | u32 count | count * (u32 page_no | page image) |
   i64 fnv64 over everything before the trailer. The journal is valid only
   if complete and checksummed, so a torn journal write is indistinguishable
   from no journal — and in both cases the data file is still intact. *)

let journal_magic = "ODEDWJ01"
let journal_head = String.length journal_magic + 4
let journal_size count = journal_head + (count * (4 + Page.size)) + 8

(* The whole journal of [batch] as one image: the reference the streamed
   journal is tested against. *)
let encode_journal batch =
  let body = journal_size (List.length batch) - 8 in
  let image = Bigbytes.create (body + 8) in
  Bigbytes.blit_from_string journal_magic 0 image 0 (String.length journal_magic);
  Bigbytes.set_int32_le image (String.length journal_magic) (Int32.of_int (List.length batch));
  List.iteri
    (fun i (no, page) ->
      let off = journal_head + (i * (4 + Page.size)) in
      Bigbytes.set_int32_le image off (Int32.of_int no);
      Bigbytes.blit page 0 image (off + 4) Page.size)
    batch;
  Bigbytes.set_int64_le image body (Bigbytes.fnv64_feed Codec.fnv64_init image ~pos:0 ~len:body);
  image

(* Bytes a journal stream gathers before each write. *)
let journal_chunk = 16 * (4 + Page.size)

(* Write the journal of [batch] to [jfd] as a stream: the header, each
   [(page no, page)] and the trailer in turn, gathered in one chunk buffer,
   under a running FNV-1a, so no image of a batch (which can be most of a
   pool) is built. An armed [disk.journal.write] fault is cut against the
   whole stream's length, so it persists the bytes it would of one image. *)
let write_journal jfd batch =
  let total = journal_size (List.length batch) in
  let cut =
    match Failpoint.hit fp_journal_write with Some act -> cut_of total act | None -> whole total
  in
  let chunk = Bigbytes.create journal_chunk in
  let fill = ref 0 and at = ref 0 and sum = ref Codec.fnv64_init in
  let flush () =
    flip_in cut chunk ~at:!at ~len:!fill;
    let n = min !fill (cut.keep - !at) in
    if n > 0 then write_at jfd chunk ~pos:0 ~len:n ~off:!at;
    at := !at + !fill;
    fill := 0
  in
  let rec put src pos len =
    if len > 0 then begin
      let n = min len (journal_chunk - !fill) in
      Bigbytes.blit src pos chunk !fill n;
      fill := !fill + n;
      if !fill = journal_chunk then flush ();
      put src (pos + n) (len - n)
    end
  in
  let add src len =
    sum := Bigbytes.fnv64_feed !sum src ~pos:0 ~len;
    put src 0 len
  in
  (* The header, then each page number, then the trailer, in turn. *)
  let field = Bigbytes.create journal_head in
  Bigbytes.blit_from_string journal_magic 0 field 0 (String.length journal_magic);
  Bigbytes.set_int32_le field (String.length journal_magic) (Int32.of_int (List.length batch));
  add field journal_head;
  List.iter
    (fun (n, page) ->
      Bigbytes.set_int32_le field 0 (Int32.of_int n);
      add field 4;
      add page Page.size)
    batch;
  Bigbytes.set_int64_le field 0 !sum;
  put field 0 8;
  flush ();
  if cut.dies then Failpoint.crash fp_journal_write

(* The [(page no, offset of its image)] pairs of the journal in the first
   [len] bytes of [data], or [None] when it is torn or fails its
   checksum. *)
let decode_journal data len =
  let magic_len = String.length journal_magic in
  if len < journal_size 0 || Bigbytes.sub_string data 0 magic_len <> journal_magic then None
  else
    let count = Int32.to_int (Bigbytes.get_int32_le data magic_len) land 0xffff_ffff in
    let body = journal_size count - 8 in
    if body + 8 > len then None
    else if
      not
        (Int64.equal (Bigbytes.get_int64_le data body)
           (Bigbytes.fnv64_feed Codec.fnv64_init data ~pos:0 ~len:body))
    then None
    else
      Some
        (List.init count (fun i ->
             let off = journal_head + (i * (4 + Page.size)) in
             (Int32.to_int (Bigbytes.get_int32_le data off) land 0xffff_ffff, off + 4)))

(* The file's bytes and how many were read. *)
let read_whole fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bigbytes.create len in
  (buf, read_at fd buf ~pos:0 ~len ~off:0)

(* Replay a complete journal into the data file (pages carry their stamped
   checksums already), or discard a torn one. Idempotent: replaying twice is
   harmless, and clearing before the data fsync is prevented by ordering. *)
let recover_journal fd journal_path =
  match Unix.openfile journal_path [ Unix.O_RDONLY ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | jfd ->
      let data, len = Fun.protect ~finally:(fun () -> Unix.close jfd) (fun () -> read_whole jfd) in
      (match decode_journal data len with
      | Some batch ->
          List.iter
            (fun (no, at) ->
              Stats.incr c_journal_pages_restored;
              write_at fd data ~pos:at ~len:Page.size ~off:(no * Page.size))
            batch;
          Unix.fsync fd
      | None -> ());
      Unix.unlink journal_path

(* -- construction --------------------------------------------------------- *)

(* Nothing at open repairs a page: the journal is the only repair, and
   every batch goes through it, so after its replay a file ends on a page
   boundary and every page it holds carries its checksum. A partial page
   or a bad checksum is damage, reported where the page is read. *)
let open_file path =
  let journal = path ^ ".journal" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match
    recover_journal fd journal;
    let len = (Unix.fstat fd).Unix.st_size in
    if len mod Page.size <> 0 then
      raise
        (Codec.Corrupt
           (Printf.sprintf "%s: page %d: partial page of %d bytes" path (len / Page.size)
              (len mod Page.size)));
    len / Page.size
  with
  | pages -> { backend = File { fd; journal; pages; written = pages }; name = path }
  | exception e ->
      Unix.close fd;
      raise e

let in_memory () =
  { backend = Memory { arr = Array.make 8 Bigbytes.empty; used = 0 }; name = "memory" }

let name t = t.name
let page_count t = match t.backend with File f -> f.pages | Memory m -> m.used

let check_range t n =
  let count = page_count t in
  if n < 0 || n >= count then
    invalid_arg (Printf.sprintf "disk: page %d out of range (count %d)" n count)

(* -- reads ---------------------------------------------------------------- *)

let h_page_read = Ode_util.Histogram.create "page.read"
let h_page_write = Ode_util.Histogram.create "page.write"

let read_into t n buf =
  check_range t n;
  Stats.incr c_pages_read;
  Ode_util.Histogram.time h_page_read @@ fun () ->
  match t.backend with
  | File f ->
      if n >= f.written then
        invalid_arg (Printf.sprintf "disk: page %d is reserved and was never written" n);
      pread f.fd buf (n * Page.size);
      if not (checksum_ok buf) then begin
        Stats.incr c_checksum_failures;
        raise (Codec.Corrupt (Printf.sprintf "%s: page %d: bad checksum" t.name n))
      end
  | Memory m -> Bigbytes.blit m.arr.(n) 0 buf 0 Page.size

let read t n =
  let buf = Bigbytes.create Page.size in
  read_into t n buf;
  buf

(* -- writes --------------------------------------------------------------- *)

(* Write one stamped page, interpreting an armed disk.write fault. *)
let put_page f n page =
  match Failpoint.hit fp_write with
  | Some act -> faulted_write fp_write f.fd page (n * Page.size) act
  | None -> pwrite f.fd page (n * Page.size)

(* Stamped zero pages for the reserved pages in [[from, upto)] that the
   file does not hold, so writing page [upto] leaves no hole before it.
   Empty when reserved pages are written in order, as the buffer pool
   writes them. *)
let gap f ~from ~upto =
  let from = max from f.written in
  List.init (max 0 (upto - from)) (fun i ->
      let zero = Bigbytes.create Page.size in
      stamp zero;
      (from + i, zero))

(* A batch in page order, with [gap]'s zero pages between its pages. *)
let dense f batch =
  let batch = List.sort (fun (a, _) (b, _) -> Int.compare a b) batch in
  let _, rev =
    List.fold_left
      (fun (next, acc) ((n, _) as p) -> (n + 1, p :: List.rev_append (gap f ~from:next ~upto:n) acc))
      (0, []) batch
  in
  List.rev rev

let write_batch t batch =
  (* one histogram sample per physical batch *)
  Ode_util.Histogram.time h_page_write @@ fun () ->
  Ode_util.Trace.with_span ~cat:"disk" "disk.write_batch" @@ fun () ->
  List.iter
    (fun (n, page) ->
      check_range t n;
      assert (Bigbytes.length page = Page.size))
    batch;
  match (t.backend, batch) with
  | _, [] -> ()
  | Memory m, _ ->
      List.iter
        (fun (n, page) ->
          Stats.incr c_pages_written;
          Bigbytes.blit page 0 m.arr.(n) 0 Page.size)
        batch
  | File f, _ ->
      List.iter (fun (_, page) -> stamp page) batch;
      (* In page order, so a batch that extends the file writes it front to
         back, with zero pages for any reserved page it skips. *)
      let batch = dense f batch in
      (* 1. Make the whole batch durable in the journal. *)
      let jfd = Unix.openfile f.journal [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close jfd)
        (fun () ->
          write_journal jfd batch;
          Unix.fsync jfd);
      (* 2. Apply in place. A crash here is repaired from the journal. *)
      List.iter
        (fun (n, page) ->
          Stats.incr c_pages_written;
          put_page f n page)
        batch;
      List.iter (fun (n, _) -> f.written <- max f.written (n + 1)) batch;
      (match Failpoint.hit fp_sync with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_sync
      | Some Failpoint.Skip_effect -> ()
      | Some _ | None -> Unix.fsync f.fd);
      (* 3. Only now is the journal obsolete. *)
      (match Failpoint.hit fp_journal_clear with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_journal_clear
      | Some Failpoint.Skip_effect -> ()
      | Some _ | None -> ( try Unix.unlink f.journal with Unix.Unix_error _ -> ()))

let allocate t =
  let n = page_count t in
  let zero = Bigbytes.create Page.size in
  (match t.backend with
  | File f -> f.pages <- n + 1
  | Memory m ->
      if n = Array.length m.arr then begin
        let bigger = Array.make (2 * n) Bigbytes.empty in
        Array.blit m.arr 0 bigger 0 n;
        m.arr <- bigger
      end;
      m.arr.(n) <- copy zero;
      m.used <- n + 1);
  (n, zero)

let sync t =
  match t.backend with
  | File f -> (
      match Failpoint.hit fp_sync with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_sync
      | Some Failpoint.Skip_effect -> ()
      | Some _ | None -> Unix.fsync f.fd)
  | Memory _ -> ()

let close t = match t.backend with File f -> Unix.close f.fd | Memory _ -> ()
