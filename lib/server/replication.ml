(* WAL-shipping replication, both ends.

   Primary side: [answer_hello] computes what a connecting replica needs —
   the WAL suffix after its LSN when the log still reaches back that far, a
   store snapshot otherwise — and the server's feeder streams post-fsync
   batches after that. Replica side: [bootstrap] opens (or installs) the
   local store and completes the handshake; [apply_batch] replays one
   shipped batch with strict LSN discipline. Everything here is
   single-threaded, driven by the server's event loop. *)

module Db = Ode.Database
module Wal = Ode_storage.Wal
module Stats = Ode_util.Stats
module Codec = Ode_util.Codec

let h_apply = Ode_util.Histogram.create "repl.apply"

let c_repl_snapshots_sent = Stats.counter "repl.snapshots_sent"
let c_repl_batches_applied = Stats.counter "repl.batches_applied"
let c_repl_dup_batches = Stats.counter "repl.dup_batches"

exception Resync of string

(* The store files a snapshot carries. The heap's header holds the
   checkpoint LSN, and the WAL rides along so the installed directory is
   exactly the primary's post-checkpoint state, frames a lost truncation
   left included (each names its own LSN). *)
let data_files = [ "objects.heap"; "directory.bpt"; "indexes.bpt" ]
let snapshot_files = data_files @ [ "wal.log" ]

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let write_file path data =
  let oc = Out_channel.open_bin path in
  Out_channel.output_string oc data;
  Out_channel.close oc

(* -- primary side -------------------------------------------------------- *)

type hello_answer =
  | Resume of { from_lsn : int; to_lsn : int; backlog : string }
  | Snapshot of { lsn : int; files : (string * string) list }

(* What a replica announcing [replica_lsn] needs. Resuming ships the log
   suffix after its position; if the log was checkpointed past it (or the
   replica claims commits we never made durable — divergence after an
   unreplicated promotion), take a fresh checkpoint and ship the files.
   Runs between requests on the event loop; a checkpoint mid-handshake is
   safe even while a session holds an open transaction (deferred-apply:
   uncommitted writes live in the write set, not the pages). *)
let answer_hello db ~replica_lsn =
  let durable = Db.durable_lsn db in
  match Db.wal_tail db ~lsn:replica_lsn with
  | Some backlog -> Resume { from_lsn = replica_lsn; to_lsn = durable; backlog }
  | None ->
      let dir =
        match Db.dir db with
        | Some d -> d
        | None -> invalid_arg "replication: an in-memory database cannot ship snapshots"
      in
      Db.checkpoint db;
      let files =
        List.filter_map
          (fun name ->
            match read_file (Filename.concat dir name) with
            | Some data -> Some (name, data)
            | None -> None)
          snapshot_files
      in
      Stats.incr c_repl_snapshots_sent;
      Snapshot { lsn = Db.lsn db; files }

(* -- replica side -------------------------------------------------------- *)

type upstream = { up_fd : Unix.file_descr; up_rd : Protocol.reader }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s pos len
    | n -> write_all fd s (pos + n) (len - n)

(* Blocking frame read during handshake (the socket is made non-blocking
   only once the loop takes over). *)
let rec next_msg fd rd buf =
  match Protocol.next_frame rd with
  | Some body -> Protocol.decode_repl body
  | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | exception Unix.Unix_error (EINTR, _, _) -> next_msg fd rd buf
      | 0 -> raise (Resync "upstream closed during handshake")
      | n ->
          Protocol.feed rd buf n;
          next_msg fd rd buf)

let connect_fd ?(timeout = 30.) ~host ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  with e ->
    close_fd fd;
    raise e

(* Open the replication connection and announce [lsn]; returns the upstream
   and the primary's first message (resume point or snapshot). Any batches
   the primary pipelined behind it stay buffered in the reader. *)
let handshake ~host ~port ~lsn =
  let fd = connect_fd ~host ~port () in
  try
    let rd = Protocol.reader ~max_len:Protocol.repl_max_frame_len () in
    write_all fd Protocol.repl_hello 0 Protocol.repl_hello_len;
    let b = Buffer.create 16 in
    Protocol.encode_repl b (Protocol.R_hello lsn);
    let s = Buffer.contents b in
    write_all fd s 0 (String.length s);
    let msg = next_msg fd rd (Bytes.create 65536) in
    ({ up_fd = fd; up_rd = rd }, msg)
  with e ->
    close_fd fd;
    raise e

(* Install a shipped snapshot: wipe the four store files and write the
   primary's copies. The directory then opens to a byte-faithful copy of
   the primary's checkpointed state — same oids, same LSN — so subsequent
   WAL batches redo cleanly. *)
let install_snapshot ~db_dir files =
  if not (Sys.file_exists db_dir) then Sys.mkdir db_dir 0o755;
  List.iter
    (fun name ->
      let p = Filename.concat db_dir name in
      if Sys.file_exists p then Sys.remove p)
    snapshot_files;
  List.iter (fun (name, data) -> write_file (Filename.concat db_dir name) data) files

(* Bring up a warm standby: open (or create) the local store, announce its
   LSN, install a snapshot if the primary says so, and return the opened
   database (read-only) plus the established upstream. Retries the initial
   connection — replicas routinely start before their primary listens. *)
let bootstrap ?(attempts = 40) ?(delay = 0.25) ~db_dir ~host ~port () =
  let rec connect_retry n =
    match
      let db = Db.open_ db_dir in
      (db, (try handshake ~host ~port ~lsn:(Db.lsn db) with e -> Db.close db; raise e))
    with
    | v -> v
    | exception Unix.Unix_error ((ECONNREFUSED | ENETUNREACH | ETIMEDOUT), _, _) when n > 1 ->
        Unix.sleepf delay;
        connect_retry (n - 1)
  in
  let db, (up, msg) = connect_retry attempts in
  let db =
    match msg with
    | Protocol.R_resume lsn ->
        if lsn <> Db.lsn db then begin
          close_fd up.up_fd;
          Db.close db;
          raise (Resync (Printf.sprintf "primary resumed at %d, we are at %d" lsn (Db.lsn db)))
        end;
        db
    | Protocol.R_snapshot (lsn, files) ->
        (* Discard the local store without checkpointing it (its history is
           being replaced wholesale) and open the installed copy. *)
        Db.crash db;
        install_snapshot ~db_dir files;
        let db = Db.open_ db_dir in
        if Db.lsn db <> lsn then begin
          close_fd up.up_fd;
          Db.close db;
          raise
            (Resync (Printf.sprintf "snapshot at %d opened to lsn %d" lsn (Db.lsn db)))
        end;
        db
    | _ ->
        close_fd up.up_fd;
        Db.close db;
        raise (Resync "unexpected reply to replication hello")
  in
  Db.set_read_only db true;
  (db, up)

(* Re-handshake after a stream fault, keeping the open database: only a
   resume is acceptable — a snapshot would mean replacing the store under a
   live server, which we refuse (restart the replica instead). *)
let reconnect ~host ~port db =
  match handshake ~host ~port ~lsn:(Db.lsn db) with
  | up, Protocol.R_resume lsn when lsn = Db.lsn db -> Ok up
  | up, _ ->
      close_fd up.up_fd;
      Error "primary cannot resume our position (snapshot required; restart the replica)"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Resync msg -> Error msg

(* Apply one shipped batch. LSN discipline: a batch entirely at or below our
   position is a duplicate (redelivery after a resync) and is skipped; a
   batch starting exactly at our position applies; anything else — a gap, a
   partial overlap, torn or corrupt frames, or frames that do not name
   exactly the advertised LSNs — raises {!Resync} before any of it is
   logged, and the caller tears the stream down and re-handshakes from its
   exact position. A checkpoint advances no
   LSN and ships alone ([from_lsn = to_lsn]), so one at our position
   applies: the standby checkpoints with its primary and its log stays
   as bounded. *)
let apply_batch db ~from_lsn ~to_lsn ~data =
  let cur = Db.lsn db in
  let checkpoint_here = from_lsn = to_lsn && to_lsn = cur in
  if to_lsn <= cur && not checkpoint_here then begin
    Stats.incr c_repl_dup_batches;
    `Duplicate
  end
  else if from_lsn <> cur then
    raise (Resync (Printf.sprintf "batch (%d,%d] does not abut position %d" from_lsn to_lsn cur))
  else begin
    let records = ref [] and at = ref cur in
    let named r =
      let before, lsn = Wal.lsn_span r in
      if before <> !at then
        raise (Resync (Printf.sprintf "batch (%d,%d] names LSN %d after %d" from_lsn to_lsn lsn !at));
      at := lsn;
      records := r :: !records
    in
    let consumed =
      match Wal.scan data named with
      | n -> n
      | exception Codec.Corrupt msg -> raise (Resync ("corrupt batch: " ^ msg))
    in
    if consumed <> String.length data then
      raise (Resync (Printf.sprintf "torn batch: %d of %d bytes intact" consumed (String.length data)));
    if !at <> to_lsn then
      raise (Resync (Printf.sprintf "batch advertised (%d,%d] but its frames end at %d" from_lsn to_lsn !at));
    Ode_util.Histogram.time h_apply (fun () ->
        Db.apply_replicated db ~frames:data (List.rev !records));
    Stats.incr c_repl_batches_applied;
    `Applied
  end
