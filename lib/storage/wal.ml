module Codec = Ode_util.Codec
module Stats = Ode_util.Stats
module Failpoint = Ode_util.Failpoint

(* wal.sync covers the append of the pending batch (short/flipped/skipped
   batches model torn log tails and lying disks); wal.fsync the durability
   barrier itself; wal.reset the post-checkpoint truncation; wal.lsn the
   window between persisting the base-LSN sidecar and the truncation it
   licenses (a crash there leaves both the sidecar and the old records —
   recovery must reconcile them). *)
let fp_sync = Failpoint.site "wal.sync"
let fp_fsync = Failpoint.site "wal.fsync"
let fp_reset = Failpoint.site "wal.reset"
let fp_lsn = Failpoint.site "wal.lsn"

let c_wal_appends = Stats.counter "wal_appends"
let c_wal_syncs = Stats.counter "wal_syncs"
let c_wal_sync_saved = Stats.counter "wal_sync_saved"
let c_wal_torn_bytes = Stats.counter ~group:Stats.Recovery "wal_torn_bytes"
let c_io_retries = Stats.counter ~group:Stats.Recovery "io_retries"

type op = Put of string | Del

type record =
  | Commit of { trace : int; ts : int; writes : (string * op) list }
  | Checkpoint of int

type file_sink = { fd : Unix.file_descr; mutable wpos : int }

type sink =
  | File of file_sink
  | Memory of Buffer.t

(* [pending_commits] counts Commit records appended since the last [sync]:
   the transactions whose durability is still deferred. Group commit rides on
   it — one sync acknowledges them all — and the accounting below turns each
   sync into a [wal.group_size] observation plus the fsyncs the batch saved.

   Commit LSNs: every [Commit] record appended is assigned the next LSN
   ([last_lsn]); [durable_lsn] trails it until a sync's barrier holds. The
   physical log starts at [base_lsn] (everything up to it was checkpointed
   away); the [lsn_path] sidecar persists that base across truncations, and
   [Checkpoint] records carry the exact LSN so replay reconciles a stale
   sidecar (lost or crashed truncation) back to the true count. *)
type t = {
  sink : sink;
  pending : Buffer.t;
  mutable pending_commits : int;
  mutable last_lsn : int;
  mutable durable_lsn : int;
  mutable base_lsn : int;
  lsn_path : string option;
  mutable on_sync : (data:string -> from_lsn:int -> to_lsn:int -> unit) option;
  mutable opened : string;
      (* The log as [open_file] read and checked it, held for the [replay]
         that follows; [""] once replayed, reset or appended past. *)
}

(* -- record codec --------------------------------------------------------
   Tags 1-5 were the per-operation layout of earlier builds. *)

let tag_commit = '\006'
let tag_checkpoint = '\007'

let put_bytes b s =
  Codec.put_varint b (String.length s);
  Codec.put_raw b s

let encode_record r =
  let b = Buffer.create 64 in
  (match r with
  | Commit { trace; ts; writes } ->
      Buffer.add_char b tag_commit;
      Codec.put_svarint b trace;
      Codec.put_varint b ts;
      List.iter
        (fun (key, op) ->
          Codec.put_u8 b (match op with Put _ -> 1 | Del -> 0);
          put_bytes b key;
          match op with Put payload -> put_bytes b payload | Del -> ())
        writes
  | Checkpoint lsn ->
      Buffer.add_char b tag_checkpoint;
      Codec.put_varint b lsn);
  Buffer.contents b

let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* The record in [s]'s bytes [pos, stop), which it must fill exactly: a
   Commit's operations run to the end of its frame, their keys strictly
   ascending from a non-empty first. *)
let decode_at s ~pos ~stop =
  let c = Codec.cursor ~pos ~stop s in
  let get_bytes () = Codec.get_raw c (Codec.get_varint c) in
  let tag = Char.chr (Codec.get_u8 c) in
  if tag = tag_commit then begin
    let trace = Codec.get_svarint c in
    let ts = Codec.get_varint c in
    let rec ops prev acc =
      if Codec.at_end c then List.rev acc
      else
        let at = Codec.pos c in
        let op = Codec.get_u8 c in
        let key = get_bytes () in
        if op > 1 || String.compare key prev <= 0 then corrupt "wal: bad operation at %d" at;
        ops key ((key, if op = 1 then Put (get_bytes ()) else Del) :: acc)
    in
    Commit { trace; ts; writes = ops "" [] }
  end
  else if tag = tag_checkpoint then begin
    let lsn = Codec.get_varint c in
    if not (Codec.at_end c) then
      corrupt "wal: record at %d ends at %d, its frame at %d" pos (Codec.pos c) stop;
    Checkpoint lsn
  end
  else corrupt "wal: bad tag %d at %d" (Char.code tag) pos

let decode_record s = decode_at s ~pos:0 ~stop:(String.length s)

(* -- framing -------------------------------------------------------------
   Frames are checked and decoded where they lie in the buffer the log was
   read into: no frame body is copied, and hashing allocates nothing. *)

let frame_header = 12

let add_frame b body =
  Codec.put_u32 b (String.length body);
  Codec.put_i64 b (Codec.fnv64 body);
  Codec.put_raw b body

let frame body =
  let b = Buffer.create (String.length body + frame_header) in
  add_frame b body;
  Buffer.contents b

(* The end of the frame at [off] of [s], or -1 when it is torn (runs past
   the end of [s]) or fails its checksum. Its body starts at
   [off + frame_header]. *)
let frame_end s off =
  if off + frame_header > String.length s then -1
  else
    let blen = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff in
    let body = off + frame_header in
    if blen > String.length s - body then -1
    else if Int64.equal (String.get_int64_le s (off + 4)) (Codec.fnv64_sub s ~pos:body ~len:blen)
    then body + blen
    else -1

(* The end of the frame at [off] of a log every frame of which was
   checked already, or -1 at its end. *)
let checked_end s off =
  if off >= String.length s then -1
  else off + frame_header + (Int32.to_int (String.get_int32_le s off) land 0xffff_ffff)

(* Walk the frames of [s] from [off] on, as long as [next] finds the
   frame's end, calling [f] on each one's decoded record; returns the
   offset past the last. *)
let rec frames next s off f =
  let stop = next s off in
  if stop < 0 then off
  else begin
    f (decode_at s ~pos:(off + frame_header) ~stop);
    frames next s stop f
  end

(* Scan intact frames from [contents], calling [f] on each decoded record;
   returns the byte offset just past the last intact frame. *)
let scan contents f = frames frame_end contents 0 f

(* The LSN after the record in [s]'s bytes [pos, stop), starting from
   [lsn]: a Commit counts up, known by its tag alone; a Checkpoint restores
   the exact value it recorded, which reconciles replay over records a lost
   truncation left behind (they were already counted before the checkpoint
   was taken). Any other tag is refused. *)
let lsn_after s ~pos ~stop lsn =
  if pos < stop && s.[pos] = tag_commit then lsn + 1
  else match decode_at s ~pos ~stop with Checkpoint l -> l | Commit _ -> lsn + 1

(* -- construction --------------------------------------------------------- *)

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      Stats.incr c_io_retries;
      retry f

let read_all fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec fill pos =
    if pos < len then
      let k = retry (fun () -> Unix.read fd buf pos (len - pos)) in
      if k = 0 then pos else fill (pos + k)
    else pos
  in
  let got = fill 0 in
  if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got

(* The base-LSN sidecar: a tiny text file beside the log holding the LSN of
   the last commit the latest truncation discarded. Written and fsynced
   *before* the truncation (see [reset]), so a crash between the two leaves
   the sidecar ahead of the log — which the Checkpoint record still in the
   log corrects during [open_file]'s scan. *)
let read_base_lsn path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 0)
  | exception Sys_error _ -> 0

let write_base_lsn path lsn =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let s = string_of_int lsn ^ "\n" in
  let rec go pos =
    if pos < String.length s then
      go (pos + retry (fun () -> Unix.write_substring fd s pos (String.length s - pos)))
  in
  go 0;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp path

(* One read of the log and one pass over it, which checks every frame and
   finds both where the intact frames end and the LSN they advance to. The
   log stays in memory, checked, for the [replay] that recovery runs
   next. *)
let attach_file fd path =
  let log = read_all fd in
  let lsn_path = path ^ ".lsn" in
  let base = read_base_lsn lsn_path in
  let lsn = ref base in
  let rec go off =
    let stop = frame_end log off in
    if stop < 0 then off
    else begin
      lsn := lsn_after log ~pos:(off + frame_header) ~stop !lsn;
      go stop
    end
  in
  let intact = go 0 in
  (* Drop any torn tail so future appends start at a clean boundary. *)
  if intact < String.length log then begin
    Stats.add c_wal_torn_bytes (String.length log - intact);
    Unix.ftruncate fd intact
  end;
  ignore (Unix.lseek fd intact Unix.SEEK_SET);
  let lsn = !lsn in
  {
    sink = File { fd; wpos = intact };
    pending = Buffer.create 4096;
    pending_commits = 0;
    last_lsn = lsn;
    durable_lsn = lsn;
    base_lsn = base;
    lsn_path = Some lsn_path;
    on_sync = None;
    opened = (if intact = String.length log then log else String.sub log 0 intact);
  }

(* A log refused at open (an older layout) leaves no descriptor open. *)
let open_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match attach_file fd path with
  | t -> t
  | exception e ->
      Unix.close fd;
      raise e

let in_memory () =
  {
    sink = Memory (Buffer.create 4096);
    pending = Buffer.create 4096;
    pending_commits = 0;
    last_lsn = 0;
    durable_lsn = 0;
    base_lsn = 0;
    lsn_path = None;
    on_sync = None;
    opened = "";
  }

let count_commit t =
  Stats.incr c_wal_appends;
  t.pending_commits <- t.pending_commits + 1;
  t.last_lsn <- t.last_lsn + 1

let append t r =
  Ode_util.Trace.instant ~cat:"wal" "wal.append";
  (match r with Commit _ -> count_commit t | Checkpoint _ -> Stats.incr c_wal_appends);
  add_frame t.pending (encode_record r)

(* The frames were checked and decoded by [scan], so each one's tag is
   there to read; a Commit frame is copied as it stands, one [append]. *)
let append_commits t s =
  let rec go off =
    let stop = checked_end s off in
    if stop >= 0 then begin
      if s.[off + frame_header] = tag_commit then begin
        count_commit t;
        Buffer.add_substring t.pending s off (stop - off)
      end;
      go stop
    end
  in
  go 0

let pending_commits t = t.pending_commits
let last_lsn t = t.last_lsn
let durable_lsn t = t.durable_lsn
let base_lsn t = t.base_lsn
let set_on_sync t f = t.on_sync <- f

let write_fully fd bytes pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = retry (fun () -> Unix.write fd bytes pos len) in
      if k = 0 then failwith "wal: write returned 0 bytes (device full?)";
      go (pos + k) (len - k)
    end
  in
  go pos len

(* Append [bytes] at the write cursor, interpreting an armed wal.sync fault:
   a short or bit-flipped batch models a torn log tail (then dies); a skipped
   batch models a lying disk that acks without persisting (and lives on). *)
let faulted_append f bytes =
  let len = Bytes.length bytes in
  ignore (Unix.lseek f.fd f.wpos Unix.SEEK_SET);
  match Failpoint.hit fp_sync with
  | None ->
      write_fully f.fd bytes 0 len;
      f.wpos <- f.wpos + len
  | Some Failpoint.Crash_site -> Failpoint.crash fp_sync
  | Some (Failpoint.Short_effect frac) ->
      let keep = max 0 (min (len - 1) (int_of_float (frac *. float_of_int len))) in
      if keep > 0 then write_fully f.fd bytes 0 keep;
      Failpoint.crash fp_sync
  | Some (Failpoint.Flip_bit bit) ->
      let byte = bit / 8 mod len in
      Bytes.set bytes byte
        (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl (bit mod 8))));
      write_fully f.fd bytes 0 len;
      Failpoint.crash fp_sync
  | Some Failpoint.Skip_effect -> f.wpos <- f.wpos + len

let h_sync = Ode_util.Histogram.create "wal.sync"

(* Commits per durability barrier: 1 under eager (full) durability, the
   batch size under group commit. *)
let h_group = Ode_util.Histogram.create ~measure:Count "wal.group_size"

let sync t =
  Stats.incr c_wal_syncs;
  Ode_util.Histogram.time h_sync (fun () ->
      Ode_util.Trace.with_span ~cat:"wal" "wal.sync" (fun () ->
          (* One copy of the batch: the write takes the bytes, and the
             observer gets them as a string once the write has succeeded
             (only a bit-flip fault alters them, and it crashes first). *)
          let bytes = Buffer.to_bytes t.pending in
          Buffer.clear t.pending;
          let len = Bytes.length bytes in
          if len > 0 then t.opened <- "";
          (match t.sink with
          | Memory b -> Buffer.add_bytes b bytes
          | File f -> (
              if len > 0 then faulted_append f bytes;
              match Failpoint.hit fp_fsync with
              | Some Failpoint.Skip_effect -> ()
              | Some Failpoint.Crash_site -> Failpoint.crash fp_fsync
              | Some _ -> Failpoint.crash fp_fsync
              | None -> Unix.fsync f.fd));
          (* Only after the barrier held: the batch is durable, every pending
             commit is acknowledged by this one fsync. *)
          if t.pending_commits > 0 then begin
            Ode_util.Histogram.observe h_group t.pending_commits;
            Stats.add c_wal_sync_saved (t.pending_commits - 1);
            t.pending_commits <- 0
          end;
          let from_lsn = t.durable_lsn in
          t.durable_lsn <- t.last_lsn;
          (* Ship the batch only now that it is durable here: a replica can
             never hold records its primary could still lose. *)
          match t.on_sync with
          | Some notify when len > 0 ->
              notify ~data:(Bytes.unsafe_to_string bytes) ~from_lsn ~to_lsn:t.durable_lsn
          | _ -> ()))

let contents t =
  match t.sink with
  | Memory b -> Buffer.contents b
  | File f -> read_all f.fd

(* The log [open_file] read and checked is still the whole file until a
   sync writes past it or a reset truncates it: replay decodes it where it
   lies, hashing nothing again, and lets it go. Otherwise the file is read
   and checked again. *)
let replay t f =
  let opened = t.opened in
  t.opened <- "";
  match t.sink with
  | File fs when opened <> "" && fs.wpos = String.length opened ->
      ignore (frames checked_end opened 0 f)
  | _ -> ignore (scan (contents t) f)

(* The raw frames of everything after [lsn]: what a replica that has applied
   up to [lsn] still needs. [None] when the log no longer reaches back that
   far (checkpointed away — ship a snapshot) or the replica claims commits we
   never made durable (divergence — also a snapshot). *)
let tail_from t ~lsn =
  if lsn < t.base_lsn || lsn > t.durable_lsn then None
  else begin
    let contents = contents t in
    let len = String.length contents in
    (* Count commits from the sidecar base. If a truncation was lost, the
       physical log still starts before the last checkpoint and this count
       transiently overshoots — detected when a Checkpoint record disagrees
       with the running count. Any cut found under the bad count is
       discarded; the Checkpoint record restores exactness from there on. *)
    let cut = ref (if lsn = t.base_lsn then Some 0 else None) in
    let rec go off cur =
      let stop = frame_end contents off in
      if stop >= 0 then begin
        let pos = off + frame_header in
        let next = lsn_after contents ~pos ~stop cur in
        let checkpoint = contents.[pos] = tag_checkpoint in
        if checkpoint && next <> cur then cut := None;
        if !cut = None && next = lsn then cut := Some stop;
        go stop next
      end
    in
    go 0 t.base_lsn;
    match !cut with
    | Some off -> Some (String.sub contents off (len - off))
    | None -> None
  end

let reset t =
  Buffer.clear t.pending;
  t.opened <- "";
  t.pending_commits <- 0;
  match t.sink with
  | Memory b ->
      Buffer.clear b;
      t.base_lsn <- t.durable_lsn
  | File f -> (
      match Failpoint.hit fp_reset with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_reset
      | Some Failpoint.Skip_effect ->
          (* Lost truncation: the old records stay and are replayed over
             checkpointed state on recovery, which must be idempotent. *)
          ()
      | Some _ | None -> (
          (* Persist the new base *before* discarding the records that prove
             it: a crash in between leaves a sidecar ahead of the log, which
             the Checkpoint record still in the log reconciles on reopen. The
             reverse order could truncate away the proof and under-count every
             LSN thereafter. *)
          (match t.lsn_path with
          | Some p -> write_base_lsn p t.durable_lsn
          | None -> ());
          match Failpoint.hit fp_lsn with
          | Some Failpoint.Crash_site -> Failpoint.crash fp_lsn
          | Some Failpoint.Skip_effect ->
              (* Treated as a lost truncation (sidecar written, records kept):
                 replay reconciles. Truncating *without* the sidecar write is
                 the one order that loses the count, so it is not modeled. *)
              ()
          | Some _ | None ->
              Unix.ftruncate f.fd 0;
              f.wpos <- 0;
              Unix.fsync f.fd;
              t.base_lsn <- t.durable_lsn))

let size_bytes t =
  (match t.sink with Memory b -> Buffer.length b | File f -> f.wpos)
  + Buffer.length t.pending

let close t = match t.sink with Memory _ -> () | File f -> Unix.close f.fd
