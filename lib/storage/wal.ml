module Codec = Ode_util.Codec
module Stats = Ode_util.Stats
module Failpoint = Ode_util.Failpoint

(* wal.sync covers the append of the pending batch (short/flipped/skipped
   batches model torn log tails and lying disks); wal.fsync the durability
   barrier itself; wal.reset the post-checkpoint truncation (a crash before
   it, or a truncation that is lost, leaves checkpointed frames in the log,
   which the next open replays). *)
let fp_sync = Failpoint.site "wal.sync"
let fp_fsync = Failpoint.site "wal.fsync"
let fp_reset = Failpoint.site "wal.reset"

let c_wal_appends = Stats.counter "wal_appends"
let c_wal_syncs = Stats.counter "wal_syncs"
let c_wal_sync_saved = Stats.counter "wal_sync_saved"
let c_wal_torn_bytes = Stats.counter ~group:Stats.Recovery "wal_torn_bytes"
let c_io_retries = Stats.counter ~group:Stats.Recovery "io_retries"

type op = Put of string | Del

type record =
  | Commit of { trace : int; ts : int; writes : (string * op) array }
  | Checkpoint of int

type file_sink = { fd : Unix.file_descr; mutable wpos : int }

type sink =
  | File of file_sink
  | Memory of Buffer.t

(* A growable byte buffer that, unlike [Buffer.t], can be written behind
   its end: a frame's header is filled in once its body is encoded. *)
type buf = { mutable b : bytes; mutable len : int }

(* What a walk reads frames from: a log held in memory (a shipped batch,
   a memory log), or a log file. *)
type source = In_memory of string | Fd of Unix.file_descr

(* What a walk has read of its source: the bytes [woff, woff + wlen), in
   [wb]. *)
type window = { mutable wb : bytes; mutable woff : int; mutable wlen : int }

(* [pending_commits] counts Commit records appended since the last [sync]:
   the transactions whose durability is still deferred. Group commit rides on
   it — one sync acknowledges them all — and the accounting below turns each
   sync into a [wal.group_size] observation plus the fsyncs the batch saved.

   Commit LSNs: every [Commit] record appended is assigned the next LSN
   ([last_lsn]); [durable_lsn] trails it until a sync's barrier holds.
   [base_lsn] is the checkpoint LSN the log continues from: the one the
   caller opened it with, or the one the last truncation reached. *)
type t = {
  sink : sink;
  pending : buf; (* the frames appended since the last sync *)
  mutable checked : int;
      (* The log's first [checked] bytes are frames [open_file] hashed; a
         walk does not hash them again. A truncation resets it. *)
  mutable pending_commits : int;
  mutable last_lsn : int;
  mutable durable_lsn : int;
  mutable base_lsn : int;
  mutable on_sync : (data:string -> from_lsn:int -> to_lsn:int -> unit) option;
}

(* -- buffers ---------------------------------------------------------------
   The pending buffer keeps the capacity it grew to, so a commit allocates
   nothing, up to [buf_cap]: a buffer grown past it is let go once the
   batch that needed it is written. *)

let buf_cap = 1 lsl 20
let pending_initial = 4096

(* A walk over the log reads this much of it at a time, or one frame if
   that is larger. *)
let read_ahead = 65536

let new_buf n = { b = Bytes.create n; len = 0 }

let reserve g n =
  if g.len + n > Bytes.length g.b then begin
    let cap = ref (max 64 (Bytes.length g.b)) in
    while !cap < g.len + n do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit g.b 0 b 0 g.len;
    g.b <- b
  end

(* Empty the pending buffer, letting it go if it grew past the cap. *)
let clear_pending t =
  t.pending.len <- 0;
  if Bytes.length t.pending.b > buf_cap then t.pending.b <- Bytes.create pending_initial

let add_char g c =
  reserve g 1;
  Bytes.set g.b g.len c;
  g.len <- g.len + 1

let add_varint g n =
  reserve g Codec.max_varint_size;
  g.len <- Codec.set_varint g.b g.len n

let add_svarint g n =
  reserve g Codec.max_varint_size;
  g.len <- Codec.set_svarint g.b g.len n

let add_substring g s pos len =
  reserve g len;
  Bytes.blit_string s pos g.b g.len len;
  g.len <- g.len + len

let add_string g s = add_substring g s 0 (String.length s)

(* -- record codec --------------------------------------------------------
   Tags 1-5 were the per-operation layout of earlier builds. *)

let tag_commit = '\006'
let tag_checkpoint = '\007'

let add_bytes g s =
  add_varint g (String.length s);
  add_string g s

let add_record g = function
  | Commit { trace; ts; writes } ->
      add_char g tag_commit;
      add_svarint g trace;
      add_varint g ts;
      Array.iter
        (fun (key, op) ->
          add_char g (match op with Put _ -> '\001' | Del -> '\000');
          add_bytes g key;
          match op with Put payload -> add_bytes g payload | Del -> ())
        writes
  | Checkpoint lsn ->
      add_char g tag_checkpoint;
      add_varint g lsn

let encode_record r =
  let g = new_buf 64 in
  add_record g r;
  Bytes.sub_string g.b 0 g.len

let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* The record in [s]'s bytes [pos, stop), which it must fill exactly: a
   Commit's operations run to the end of its frame, their keys strictly
   ascending from a non-empty first. Errors give offsets in the log, of
   whose bytes [s]'s first is byte [base]. *)
let decode_at ?(base = 0) s ~pos ~stop =
  let c = Codec.cursor ~pos ~stop s in
  let get_bytes () = Codec.get_raw c (Codec.get_varint c) in
  let tag = Char.chr (Codec.get_u8 c) in
  if tag = tag_commit then begin
    let trace = Codec.get_svarint c in
    let ts = Codec.get_varint c in
    let rec ops prev acc =
      if Codec.at_end c then Array.of_list (List.rev acc)
      else
        let at = Codec.pos c in
        let op = Codec.get_u8 c in
        let key = get_bytes () in
        if op > 1 || String.compare key prev <= 0 then corrupt "wal: bad operation at %d" (base + at);
        ops key ((key, if op = 1 then Put (get_bytes ()) else Del) :: acc)
    in
    Commit { trace; ts; writes = ops "" [] }
  end
  else if tag = tag_checkpoint then begin
    let lsn = Codec.get_varint c in
    if not (Codec.at_end c) then
      corrupt "wal: record at %d ends at %d, its frame at %d" (base + pos) (base + Codec.pos c)
        (base + stop);
    Checkpoint lsn
  end
  else corrupt "wal: bad tag %d at %d" (Char.code tag) (base + pos)

let decode_record s = decode_at s ~pos:0 ~stop:(String.length s)

(* -- framing -------------------------------------------------------------
   A frame is written in place: its header is reserved, its body encoded
   behind it, and then the body's length and checksum are filled in.
   Frames are checked and decoded where they lie in the bytes they were
   read into: no frame body is copied, and hashing allocates nothing. *)

let frame_header = 12

let add_frame g encode x =
  let at = g.len in
  reserve g frame_header;
  g.len <- at + frame_header;
  encode g x;
  let blen = g.len - at - frame_header in
  Bytes.set_int32_le g.b at (Int32.of_int blen);
  Bytes.set_int64_le g.b (at + 4)
    (Codec.fnv64_sub (Bytes.unsafe_to_string g.b) ~pos:(at + frame_header) ~len:blen)

let frame body =
  let g = new_buf (String.length body + frame_header) in
  add_frame g add_string body;
  Bytes.sub_string g.b 0 g.len

(* Whether the frame at [off] of [s], whose [blen]-byte body [s] holds,
   passes its checksum. *)
let checksum_ok s off blen = Codec.fnv64_sub_is s ~pos:(off + frame_header) ~len:blen ~at:(off + 4)

(* Every frame names its LSN: a Commit its own, the [ts] behind its trace
   id; a Checkpoint the last commit's. [varint_at] reads, in place, the
   varint after the [skip] ones at [pos], which end before [stop]. *)
let rec varint_at ~base s pos stop ~skip shift acc =
  if pos >= stop || shift > 56 then corrupt "wal: bad varint at %d" (base + pos)
  else
    let b = Char.code s.[pos] in
    if skip > 0 then varint_at ~base s (pos + 1) stop ~skip:(skip - Bool.to_int (b < 0x80)) 0 0
    else if b < 0x80 then acc lor (b lsl shift)
    else varint_at ~base s (pos + 1) stop ~skip (shift + 7) (acc lor ((b land 0x7f) lsl shift))

(* The LSN the record in [s]'s bytes [pos, stop) names, read without
   allocating for a Commit. Any other tag but a Checkpoint's is refused. *)
let frame_lsn ~base s ~pos ~stop =
  if pos < stop && s.[pos] = tag_commit then varint_at ~base s (pos + 1) stop ~skip:1 0 0
  else match decode_at ~base s ~pos ~stop with Checkpoint l -> l | Commit { ts; _ } -> ts

(* A frame continues the log at the LSN before it: a Commit's own minus
   one, a Checkpoint's own. *)
let lsn_span = function Commit { ts; _ } -> (ts - 1, ts) | Checkpoint l -> (l, l)

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      Stats.incr c_io_retries;
      retry f

(* -- reading the log -------------------------------------------------------
   [open_file], [replay] and [tail_from] walk the log a frame at a time
   through one window of it, refilled at the frame the walk has reached
   whenever that frame is not in it: the window holds [read_ahead] bytes
   of the log, or one frame, never the whole log, and lives only as long
   as the walk. A log in memory is its own window. *)

let rec read_fully fd b pos len =
  if len = 0 then pos
  else
    match retry (fun () -> Unix.read fd b pos len) with
    | 0 -> pos
    | k -> read_fully fd b (pos + k) (len - k)

(* Bring the source's bytes [off, off + n) into the window [w]: false
   when the source, [size] bytes long, ends before them. *)
let fill src w ~size ~off ~n =
  (off >= w.woff && off + n <= w.woff + w.wlen)
  || off + n <= size
     &&
     match src with
     | In_memory _ -> false
     | Fd fd ->
         if n > Bytes.length w.wb then w.wb <- Bytes.create n;
         ignore (Unix.lseek fd off Unix.SEEK_SET);
         w.woff <- off;
         w.wlen <- read_fully fd w.wb 0 (min (Bytes.length w.wb) (size - off));
         w.wlen >= n

(* Walk the intact frames of [src] from its start, calling
   [f ~base s ~pos ~stop] on each: the frame's body is [s]'s bytes
   [pos, stop), valid only until [f] returns, and [s]'s first byte is the
   source's byte [base]. A frame that ends within the first [checked]
   bytes, checked before, is not hashed again. Returns the offset past the
   last intact frame: the walk stops at the first torn frame or bad
   checksum. *)
let walk ?(checked = 0) src f =
  let size, w =
    match src with
    | In_memory s -> (String.length s, { wb = Bytes.unsafe_of_string s; woff = 0; wlen = String.length s })
    | Fd fd ->
        let size = (Unix.fstat fd).st_size in
        (size, { wb = Bytes.create (min size read_ahead); woff = 0; wlen = 0 })
  in
  let rec go off =
    if not (fill src w ~size ~off ~n:frame_header) then off
    else
      let blen = Int32.to_int (Bytes.get_int32_le w.wb (off - w.woff)) land 0xffff_ffff in
      let stop = off + frame_header + blen in
      if blen > size - off - frame_header || not (fill src w ~size ~off ~n:(frame_header + blen)) then off
      else
        let s = Bytes.unsafe_to_string w.wb and at = off - w.woff in
        if stop > checked && not (checksum_ok s at blen) then off
        else begin
          f ~base:w.woff s ~pos:(at + frame_header) ~stop:(at + frame_header + blen);
          go stop
        end
  in
  go 0

let scan contents f = walk (In_memory contents) (fun ~base:_ s ~pos ~stop -> f (decode_at s ~pos ~stop))

let source t = match t.sink with Memory b -> In_memory (Buffer.contents b) | File f -> Fd f.fd
let walk_log t f = walk ~checked:t.checked (source t) f

(* -- construction --------------------------------------------------------- *)

let create sink base =
  {
    sink;
    pending = new_buf pending_initial;
    checked = 0;
    pending_commits = 0;
    last_lsn = base;
    durable_lsn = base;
    base_lsn = base;
    on_sync = None;
  }

(* One pass over the log, which checks every frame and finds both where
   the intact frames end and the LSN the last names. Each frame continues
   the one before it (a Commit names the next LSN, a Checkpoint the same),
   and the first must not start past [base]: frames below it are ones a
   lost truncation left. A torn tail is cut off, so appends start at a
   clean boundary. *)
let attach_file fd ~base =
  let f = { fd; wpos = 0 } in
  let t = create (File f) base in
  let size = (Unix.fstat fd).st_size in
  let last = ref (-1) in
  let intact =
    walk_log t (fun ~base:off s ~pos ~stop ->
        let lsn = frame_lsn ~base:off s ~pos ~stop in
        let before = if s.[pos] = tag_commit then lsn - 1 else lsn (* as [lsn_span] *) in
        if if !last < 0 then before > base else before <> !last then
          corrupt "wal: the frame at %d names LSN %d after LSN %d" (off + pos - frame_header) lsn
            (max base !last);
        last := lsn)
  in
  if intact < size then begin
    Stats.add c_wal_torn_bytes (size - intact);
    Unix.ftruncate fd intact
  end;
  f.wpos <- intact;
  t.checked <- intact;
  t.last_lsn <- max base !last;
  t.durable_lsn <- t.last_lsn;
  t

(* A log refused at open (an older layout) leaves no descriptor open. *)
let open_file ~base path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match attach_file fd ~base with
  | t -> t
  | exception e ->
      Unix.close fd;
      raise e

let in_memory () = create (Memory (Buffer.create 4096)) 0

let count_commit t =
  Stats.incr c_wal_appends;
  t.pending_commits <- t.pending_commits + 1;
  t.last_lsn <- t.last_lsn + 1

let append t r =
  Ode_util.Trace.instant ~cat:"wal" "wal.append";
  (match r with Commit _ -> count_commit t | Checkpoint _ -> Stats.incr c_wal_appends);
  add_frame t.pending add_record r

(* The frames were checked and decoded by [scan], so they are not hashed
   again; a Commit frame is copied as it stands, one [append]. *)
let append_commits t s =
  ignore
    (walk ~checked:(String.length s) (In_memory s) (fun ~base:_ s ~pos ~stop ->
         if s.[pos] = tag_commit then begin
           count_commit t;
           add_substring t.pending s (pos - frame_header) (stop - pos + frame_header)
         end))

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

(* Append the pending batch at the write cursor, interpreting an armed
   wal.sync fault: a short or bit-flipped batch models a torn log tail
   (then dies); a skipped batch models a lying disk that acks without
   persisting (and lives on). *)
let faulted_append f { b = bytes; len } =
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
          (* The batch is written from the pending buffer itself; only
             an observer gets a copy, once the write has succeeded (only
             a bit-flip fault alters the bytes, and it crashes first). A
             batch whose write fails is dropped, as a written one is. *)
          let batch = t.pending in
          let len = batch.len in
          (match
             match t.sink with
             | Memory b -> Buffer.add_subbytes b batch.b 0 len
             | File f -> (
                 if len > 0 then faulted_append f batch;
                 match Failpoint.hit fp_fsync with
                 | Some Failpoint.Skip_effect -> ()
                 | Some Failpoint.Crash_site -> Failpoint.crash fp_fsync
                 | Some _ -> Failpoint.crash fp_fsync
                 | None -> Unix.fsync f.fd)
           with
          | () -> ()
          | exception e ->
              clear_pending t;
              raise e);
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
          let data =
            match t.on_sync with Some _ when len > 0 -> Bytes.sub_string batch.b 0 len | _ -> ""
          in
          clear_pending t;
          match t.on_sync with
          | Some notify when len > 0 -> notify ~data ~from_lsn ~to_lsn:t.durable_lsn
          | _ -> ()))

let replay t f = ignore (walk_log t (fun ~base s ~pos ~stop -> f (decode_at ~base s ~pos ~stop)))

(* The raw frames of everything after [lsn]: what a replica that has applied
   up to [lsn] still needs, the frames behind the last that names [lsn] or
   less. [None] when the log no longer reaches back that far (checkpointed
   away — ship a snapshot) or the replica claims commits we never made
   durable (divergence — also a snapshot). *)
let tail_from t ~lsn =
  if lsn < t.base_lsn || lsn > t.durable_lsn then None
  else begin
    let off = ref 0 in
    ignore
      (walk_log t (fun ~base s ~pos ~stop ->
           if frame_lsn ~base s ~pos ~stop <= lsn then off := base + stop));
    let off = !off in
    match t.sink with
    | Memory b -> Some (Buffer.sub b off (Buffer.length b - off))
    | File f ->
        let len = (Unix.fstat f.fd).st_size - off in
        let s = Bytes.create len in
        ignore (Unix.lseek f.fd off Unix.SEEK_SET);
        let got = read_fully f.fd s 0 len in
        Some (if got = len then Bytes.unsafe_to_string s else Bytes.sub_string s 0 got)
  end

let reset t =
  clear_pending t;
  t.pending_commits <- 0;
  match t.sink with
  | Memory b ->
      Buffer.clear b;
      t.base_lsn <- t.durable_lsn
  | File f -> (
      match Failpoint.hit fp_reset with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_reset
      | Some Failpoint.Skip_effect ->
          (* Lost truncation: the old frames stay, and the next open replays
             them over checkpointed state, which is idempotent. Each names
             its own LSN, so they count nothing twice. *)
          ()
      | Some _ | None ->
          Unix.ftruncate f.fd 0;
          f.wpos <- 0;
          t.checked <- 0;
          Unix.fsync f.fd;
          t.base_lsn <- t.durable_lsn)

let size_bytes t =
  (match t.sink with Memory b -> Buffer.length b | File f -> f.wpos)
  + t.pending.len

let close t = match t.sink with Memory _ -> () | File f -> Unix.close f.fd
