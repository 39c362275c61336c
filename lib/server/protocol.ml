(* Wire protocol: handshake + length-prefixed frames over Ode_util.Codec.
   See protocol.mli for the layout. *)

module Codec = Ode_util.Codec

let magic = "ODEP"

(* One version on the wire: the server and a replication primary accept
   exactly this one and answer any other with [Bad_version]. A standby
   applies the primary's log as it stands, so the version moves with the
   store's layout too (8: the checkpoint LSN in the heap's header page,
   where a snapshot carries it). *)
let version = 8
let max_frame_len = 16 * 1024 * 1024

(* Replication connections carry their own magic (so a replica pointed at a
   client port — or vice versa — fails fast) and a larger frame cap:
   snapshot messages carry whole data files. *)
let repl_magic = "ODER"
let repl_max_frame_len = 256 * 1024 * 1024

(* -- handshake ---------------------------------------------------------- *)

let hello =
  let b = Buffer.create 8 in
  Buffer.add_string b magic;
  Codec.put_u16 b version;
  Buffer.contents b

let hello_len = String.length hello

type status = Accepted | Busy | Bad_version

let status_byte = function Accepted -> 0 | Busy -> 1 | Bad_version -> 2

let hello_reply st =
  let b = Buffer.create 8 in
  Buffer.add_string b magic;
  Codec.put_u16 b version;
  Codec.put_u8 b (status_byte st);
  Buffer.contents b

let hello_reply_len = hello_len + 1

let parse_hello s =
  if String.length s <> hello_len then Error "handshake: wrong length"
  else if String.sub s 0 4 <> magic then Error "handshake: bad magic"
  else
    let v = Codec.get_u16 (Codec.cursor ~pos:4 s) in
    if v = version then Ok ()
    else Error (Printf.sprintf "handshake: version mismatch (client %d, server %d)" v version)

let parse_hello_reply s =
  if String.length s <> hello_reply_len then Error "handshake reply: wrong length"
  else if String.sub s 0 4 <> magic then Error "handshake reply: bad magic"
  else
    let c = Codec.cursor ~pos:4 s in
    let v = Codec.get_u16 c in
    match Codec.get_u8 c with
    | 0 -> Ok ()
    | 1 -> Error "server busy (connection limit reached)"
    | 2 -> Error (Printf.sprintf "protocol version mismatch (server %d, client %d)" v version)
    | n -> Error (Printf.sprintf "handshake reply: unknown status %d" n)

(* -- requests / responses ----------------------------------------------- *)

type op = Ping | Exec of string | Query of string | Dot of string | Close

(* [rq_trace] is the client-assigned trace id (0 = untraced). *)
type request = { rq_id : int; rq_trace : int; rq_op : op }
type reply =
  | Pong
  | Output of string
  | Rows of string list
  | Error of Ode_util.Ode_error.t

(* [rs_lsn] is the server's commit LSN when the request was handled: on a
   primary the last committed transaction (so a write's ack carries the LSN
   that made it in), on a replica the replication apply position. Clients
   use it for read-your-writes routing. *)
type response = { rs_id : int; rs_lsn : int; rs_reply : reply }

(* Encode [body] into [b] as one frame: u32 length, then the body. *)
let frame b body =
  let len = Buffer.length body in
  if len > max_frame_len then
    invalid_arg (Printf.sprintf "protocol: frame body %d exceeds %d bytes" len max_frame_len);
  Codec.put_u32 b len;
  Buffer.add_buffer b body

let encode_request b { rq_id; rq_trace; rq_op } =
  let body = Buffer.create 64 in
  Codec.put_u32 body rq_id;
  Codec.put_int body rq_trace;
  (match rq_op with
  | Ping -> Codec.put_u8 body 0
  | Exec src ->
      Codec.put_u8 body 1;
      Codec.put_string body src
  | Query src ->
      Codec.put_u8 body 2;
      Codec.put_string body src
  | Dot line ->
      Codec.put_u8 body 3;
      Codec.put_string body line
  | Close -> Codec.put_u8 body 4);
  frame b body

(* A response is written straight into [b]: its body's exact length
   first, then the frame, so no body buffer is built per reply. *)
let encode_response b { rs_id; rs_lsn; rs_reply } =
  let len =
    13
    +
    match rs_reply with
    | Pong -> 0
    | Output s -> 4 + String.length s
    | Rows rows -> List.fold_left (fun n r -> n + 4 + String.length r) 4 rows
    | Error { msg; _ } -> 5 + String.length msg
  in
  if len > max_frame_len then
    invalid_arg (Printf.sprintf "protocol: frame body %d exceeds %d bytes" len max_frame_len);
  Codec.put_u32 b len;
  Codec.put_u32 b rs_id;
  Codec.put_int b rs_lsn;
  match rs_reply with
  | Pong -> Codec.put_u8 b 0
  | Output s ->
      Codec.put_u8 b 1;
      Codec.put_string b s
  | Rows rows ->
      Codec.put_u8 b 2;
      Codec.put_u32 b (List.length rows);
      List.iter (Codec.put_string b) rows
  | Error { cls; msg } ->
      Codec.put_u8 b 3;
      Codec.put_u8 b (Option.get (List.find_index (( = ) cls) Ode_util.Ode_error.classes));
      Codec.put_string b msg

let check_consumed c =
  if not (Codec.at_end c) then
    raise (Codec.Corrupt (Printf.sprintf "protocol: %d trailing bytes in frame" (Codec.remaining c)))

let decode_request s =
  let c = Codec.cursor s in
  let rq_id = Codec.get_u32 c in
  let rq_trace = Codec.get_int c in
  let rq_op =
    match Codec.get_u8 c with
    | 0 -> Ping
    | 1 -> Exec (Codec.get_string c)
    | 2 -> Query (Codec.get_string c)
    | 3 -> Dot (Codec.get_string c)
    | 4 -> Close
    | n -> raise (Codec.Corrupt (Printf.sprintf "protocol: unknown opcode %d" n))
  in
  check_consumed c;
  { rq_id; rq_trace; rq_op }

let decode_response s =
  let c = Codec.cursor s in
  let rs_id = Codec.get_u32 c in
  let rs_lsn = Codec.get_int c in
  let rs_reply =
    match Codec.get_u8 c with
    | 0 -> Pong
    | 1 -> Output (Codec.get_string c)
    | 2 ->
        let n = Codec.get_u32 c in
        if n > max_frame_len then
          raise (Codec.Corrupt (Printf.sprintf "protocol: absurd row count %d" n));
        Rows (List.init n (fun _ -> Codec.get_string c))
    | 3 -> (
        let b = Codec.get_u8 c in
        match List.nth_opt Ode_util.Ode_error.classes b with
        | Some cls -> Error { cls; msg = Codec.get_string c }
        | None -> raise (Codec.Corrupt (Printf.sprintf "protocol: unknown error class %d" b)))
    | n -> raise (Codec.Corrupt (Printf.sprintf "protocol: unknown reply tag %d" n))
  in
  check_consumed c;
  { rs_id; rs_lsn; rs_reply }

(* -- incremental frame extraction --------------------------------------- *)

(* Pending bytes live in [buf]; [pos] is the consumed prefix. The buffer is
   compacted whenever everything buffered has been consumed, which in
   practice is after every batch of frames (requests are small). *)
type reader = { mutable buf : Buffer.t; mutable pos : int; rd_max : int }

let reader ?(max_len = max_frame_len) () = { buf = Buffer.create 4096; pos = 0; rd_max = max_len }

let feed r bytes n = Buffer.add_subbytes r.buf bytes 0 n
let buffered r = Buffer.length r.buf - r.pos

let compact r =
  if r.pos > 0 && r.pos = Buffer.length r.buf then begin
    Buffer.clear r.buf;
    r.pos <- 0
  end

let take r n =
  if buffered r < n then None
  else begin
    let s = Buffer.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    compact r;
    Some s
  end

let peek_u32 r =
  let b i = Char.code (Buffer.nth r.buf (r.pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let next_frame r =
  if buffered r < 4 then None
  else begin
    let len = peek_u32 r in
    if len > r.rd_max then
      raise
        (Codec.Corrupt (Printf.sprintf "protocol: frame of %d bytes exceeds %d" len r.rd_max));
    if buffered r < 4 + len then None
    else begin
      let s = Buffer.sub r.buf (r.pos + 4) len in
      r.pos <- r.pos + 4 + len;
      compact r;
      Some s
    end
  end

(* -- replication stream ------------------------------------------------- *)

(* A replica opens with [repl_hello] (magic + version, unframed), then both
   sides exchange frames. The replica announces its apply LSN; the primary
   answers with either a resume point (and then streams batches) or a
   snapshot (the data files at a checkpoint) followed by batches. The
   replica acknowledges each applied batch so the primary can track lag and
   gate semi-sync acks. *)

type repl_msg =
  | R_hello of int  (* replica's current commit LSN; fresh store = 0 *)
  | R_resume of int  (* primary will stream WAL batches from this LSN *)
  | R_snapshot of int * (string * string) list  (* LSN; data files by name *)
  | R_batch of int * int * string  (* (from_lsn, to_lsn], raw WAL frames *)
  | R_ack of int  (* replica has durably applied up to this LSN *)

let repl_hello =
  let b = Buffer.create 8 in
  Buffer.add_string b repl_magic;
  Codec.put_u16 b version;
  Buffer.contents b

let repl_hello_len = String.length repl_hello

let parse_repl_hello s =
  (* [reply]'s [Error] constructor shadows [result]'s from here on down. *)
  if String.length s <> repl_hello_len then Stdlib.Error "repl handshake: wrong length"
  else if String.sub s 0 4 <> repl_magic then Stdlib.Error "repl handshake: bad magic"
  else
    let c = Codec.cursor ~pos:4 s in
    let v = Codec.get_u16 c in
    if v = version then Stdlib.Ok ()
    else
      Stdlib.Error
        (Printf.sprintf "repl handshake: version mismatch (peer %d, ours %d)" v version)

let encode_repl b msg =
  let body = Buffer.create 64 in
  (match msg with
  | R_hello lsn ->
      Codec.put_u8 body 0;
      Codec.put_int body lsn
  | R_resume lsn ->
      Codec.put_u8 body 1;
      Codec.put_int body lsn
  | R_snapshot (lsn, files) ->
      Codec.put_u8 body 2;
      Codec.put_int body lsn;
      Codec.put_u32 body (List.length files);
      List.iter
        (fun (name, data) ->
          Codec.put_string body name;
          Codec.put_string body data)
        files
  | R_batch (from_lsn, to_lsn, data) ->
      Codec.put_u8 body 3;
      Codec.put_int body from_lsn;
      Codec.put_int body to_lsn;
      Codec.put_string body data
  | R_ack lsn ->
      Codec.put_u8 body 4;
      Codec.put_int body lsn);
  let len = Buffer.length body in
  if len > repl_max_frame_len then
    invalid_arg (Printf.sprintf "protocol: repl frame body %d exceeds %d bytes" len repl_max_frame_len);
  Codec.put_u32 b len;
  Buffer.add_buffer b body

let decode_repl s =
  let c = Codec.cursor s in
  let msg =
    match Codec.get_u8 c with
    | 0 -> R_hello (Codec.get_int c)
    | 1 -> R_resume (Codec.get_int c)
    | 2 ->
        let lsn = Codec.get_int c in
        let n = Codec.get_u32 c in
        if n > 64 then raise (Codec.Corrupt (Printf.sprintf "protocol: absurd snapshot file count %d" n));
        let files =
          List.init n (fun _ ->
              let name = Codec.get_string c in
              let data = Codec.get_string c in
              (name, data))
        in
        R_snapshot (lsn, files)
    | 3 ->
        let from_lsn = Codec.get_int c in
        let to_lsn = Codec.get_int c in
        R_batch (from_lsn, to_lsn, Codec.get_string c)
    | 4 -> R_ack (Codec.get_int c)
    | n -> raise (Codec.Corrupt (Printf.sprintf "protocol: unknown repl tag %d" n))
  in
  check_consumed c;
  msg
