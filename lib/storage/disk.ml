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
type mem = { mutable arr : bytes array; mutable used : int }

type backend =
  | File of file
  | Memory of mem

(* A disk belongs to one database, which is used from one domain, so it
   takes no lock even though the file backend positions with lseek before
   each transfer. *)
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

let read_fully fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = retry (fun () -> Unix.read fd buf pos len) in
      if k = 0 then invalid_arg "disk: short read";
      go (pos + k) (len - k)
    end
  in
  go pos len

let write_fully fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = retry (fun () -> Unix.write fd buf pos len) in
      if k = 0 then failwith "disk: write returned 0 bytes (device full?)";
      go (pos + k) (len - k)
    end
  in
  go pos len

let pread fd buf off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  read_fully fd buf 0 Page.size

let pwrite ?(len = Page.size) fd buf off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  write_fully fd buf 0 len

(* -- page checksums ------------------------------------------------------- *)

let checksum_off = Page.data_end

let stamp page =
  let sum = Codec.fnv64_bytes page ~pos:0 ~len:checksum_off in
  Bytes.set_int64_le page checksum_off sum

let checksum_ok page =
  Bytes.get_int64_le page checksum_off
  = Codec.fnv64_bytes page ~pos:0 ~len:checksum_off

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
    Bytes.set_uint8 buf i (Bytes.get_uint8 buf i lxor cut.mask)

let faulted_write site fd buf off act =
  let cut = cut_of (Bytes.length buf) act in
  if cut.keep > 0 then begin
    let buf = if cut.flip < 0 then buf else Bytes.copy buf in
    flip_in cut buf ~at:0 ~len:(Bytes.length buf);
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
  let image = Bytes.create (body + 8) in
  Bytes.blit_string journal_magic 0 image 0 (String.length journal_magic);
  Bytes.set_int32_le image (String.length journal_magic) (Int32.of_int (List.length batch));
  List.iteri
    (fun i (no, page) ->
      let off = journal_head + (i * (4 + Page.size)) in
      Bytes.set_int32_le image off (Int32.of_int no);
      Bytes.blit page 0 image (off + 4) Page.size)
    batch;
  Bytes.set_int64_le image body (Codec.fnv64_bytes image ~pos:0 ~len:body);
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
  let chunk = Bytes.create journal_chunk in
  let fill = ref 0 and at = ref 0 and sum = ref Codec.fnv64_init in
  let flush () =
    flip_in cut chunk ~at:!at ~len:!fill;
    let n = min !fill (cut.keep - !at) in
    if n > 0 then write_fully jfd chunk 0 n;
    at := !at + !fill;
    fill := 0
  in
  let rec put src pos len =
    if len > 0 then begin
      let n = min len (journal_chunk - !fill) in
      Bytes.blit src pos chunk !fill n;
      fill := !fill + n;
      if !fill = journal_chunk then flush ();
      put src (pos + n) (len - n)
    end
  in
  let add src =
    sum := Codec.fnv64_feed_bytes !sum src ~pos:0 ~len:(Bytes.length src);
    put src 0 (Bytes.length src)
  in
  let head = Bytes.create journal_head and no = Bytes.create 4 in
  Bytes.blit_string journal_magic 0 head 0 (String.length journal_magic);
  Bytes.set_int32_le head (String.length journal_magic) (Int32.of_int (List.length batch));
  add head;
  List.iter
    (fun (n, page) ->
      Bytes.set_int32_le no 0 (Int32.of_int n);
      add no;
      add page)
    batch;
  let trailer = Bytes.create 8 in
  Bytes.set_int64_le trailer 0 !sum;
  put trailer 0 8;
  flush ();
  if cut.dies then Failpoint.crash fp_journal_write

let decode_journal data =
  let len = String.length data in
  if len < String.length journal_magic + 4 + 8 then None
  else if String.sub data 0 (String.length journal_magic) <> journal_magic then None
  else
    let c = Codec.cursor ~pos:(String.length journal_magic) data in
    match
      let count = Codec.get_u32 c in
      let batch = ref [] in
      for _ = 1 to count do
        let no = Codec.get_u32 c in
        let page = Codec.get_raw c Page.size in
        batch := (no, page) :: !batch
      done;
      let body_len = Codec.pos c in
      let sum = Codec.get_i64 c in
      if sum <> Codec.fnv64_sub data ~pos:0 ~len:body_len then None
      else Some (List.rev !batch)
    with
    | v -> v
    | exception Codec.Corrupt _ -> None

let read_whole fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec fill pos =
    if pos >= len then pos
    else
      let k = retry (fun () -> Unix.read fd buf pos (len - pos)) in
      if k = 0 then pos else fill (pos + k)
  in
  let got = fill 0 in
  Bytes.sub_string buf 0 got

(* Replay a complete journal into the data file (pages carry their stamped
   checksums already), or discard a torn one. Idempotent: replaying twice is
   harmless, and clearing before the data fsync is prevented by ordering. *)
let recover_journal fd journal_path =
  match Unix.openfile journal_path [ Unix.O_RDONLY ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | jfd ->
      let data = Fun.protect ~finally:(fun () -> Unix.close jfd) (fun () -> read_whole jfd) in
      (match decode_journal data with
      | Some batch ->
          List.iter
            (fun (no, page) ->
              Stats.incr c_journal_pages_restored;
              pwrite fd (Bytes.of_string page) (no * Page.size))
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
  { backend = Memory { arr = Array.make 8 Bytes.empty; used = 0 }; name = "memory" }

let name t = t.name
let is_memory t = match t.backend with Memory _ -> true | File _ -> false
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
  | Memory m -> Bytes.blit m.arr.(n) 0 buf 0 Page.size

let read t n =
  let buf = Bytes.create Page.size in
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
      let zero = Bytes.make Page.size '\000' in
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
      assert (Bytes.length page = Page.size))
    batch;
  match (t.backend, batch) with
  | _, [] -> ()
  | Memory m, _ ->
      List.iter
        (fun (n, page) ->
          Stats.incr c_pages_written;
          Bytes.blit page 0 m.arr.(n) 0 Page.size)
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
  let zero = Bytes.make Page.size '\000' in
  (match t.backend with
  | File f -> f.pages <- n + 1
  | Memory m ->
      if n = Array.length m.arr then begin
        let bigger = Array.make (2 * n) Bytes.empty in
        Array.blit m.arr 0 bigger 0 n;
        m.arr <- bigger
      end;
      m.arr.(n) <- Bytes.copy zero;
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
