(* Wire-protocol codec: fuzzed round trips through the frame reader, plus
   the rejection paths (truncation, oversized frames, garbage handshakes)
   the server leans on to survive hostile peers. *)

module P = Ode_served.Protocol
module Codec = Ode_util.Codec
module Prng = Ode_util.Prng
module Err = Ode_util.Ode_error

(* Random binary payload, including NULs and high bytes. *)
let rand_payload rng =
  String.init (Prng.int rng 2048) (fun _ -> Char.chr (Prng.int rng 256))

let rand_op rng : P.op =
  match Prng.int rng 5 with
  | 0 -> Ping
  | 1 -> Exec (rand_payload rng)
  | 2 -> Query (rand_payload rng)
  | 3 -> Dot (rand_payload rng)
  | _ -> Close

let rand_reply rng : P.reply =
  match Prng.int rng 4 with
  | 0 -> Pong
  | 1 -> Output (rand_payload rng)
  | 2 -> Rows (List.init (Prng.int rng 20) (fun _ -> rand_payload rng))
  | _ ->
      Error
        { cls = List.nth Err.classes (Prng.int rng (List.length Err.classes)); msg = rand_payload rng }

let op_eq (a : P.op) (b : P.op) = a = b
let reply_eq (a : P.reply) (b : P.reply) = a = b

(* Feed [data] to a reader in random-sized slices, as a socket would. *)
let feed_in_chunks rng rd data =
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    let k = 1 + Prng.int rng (max 1 (n - !pos)) in
    let k = min k (n - !pos) in
    P.feed rd (Bytes.of_string (String.sub data !pos k)) k;
    pos := !pos + k
  done

let fuzz_requests () =
  let rng = Prng.create 401 in
  let rd = P.reader () in
  for round = 0 to 99 do
    (* A burst of frames arrives as one byte stream split arbitrarily. *)
    let reqs =
      List.init (1 + Prng.int rng 5) (fun i ->
          {
            P.rq_id = (round * 10) + i;
            rq_trace = Prng.int rng 1_000_000;
            rq_op = rand_op rng;
          })
    in
    let b = Buffer.create 4096 in
    List.iter (P.encode_request b) reqs;
    feed_in_chunks rng rd (Buffer.contents b);
    let decoded =
      List.map
        (fun _ ->
          match P.next_frame rd with
          | Some body -> P.decode_request body
          | None -> Alcotest.fail "frame should be complete")
        reqs
    in
    List.iter2
      (fun (a : P.request) (b : P.request) ->
        Tutil.check_int "id" a.rq_id b.rq_id;
        Tutil.check_int "trace" a.rq_trace b.rq_trace;
        Tutil.check_bool "op" true (op_eq a.rq_op b.rq_op))
      reqs decoded;
    Tutil.check_bool "drained" true (P.next_frame rd = None)
  done;
  Tutil.check_int "no leftover bytes" 0 (P.buffered rd)

let fuzz_responses () =
  let rng = Prng.create 402 in
  let classes = Hashtbl.create 8 in
  for i = 0 to 199 do
    let resp = { P.rs_id = i; rs_lsn = Prng.int rng 1_000_000; rs_reply = rand_reply rng } in
    let b = Buffer.create 4096 in
    P.encode_response b resp;
    let rd = P.reader () in
    feed_in_chunks rng rd (Buffer.contents b);
    match P.next_frame rd with
    | None -> Alcotest.fail "complete frame expected"
    | Some body ->
        let got = P.decode_response body in
        Tutil.check_int "id" resp.rs_id got.rs_id;
        Tutil.check_int "lsn" resp.rs_lsn got.rs_lsn;
        Tutil.check_bool "reply" true (reply_eq resp.rs_reply got.rs_reply);
        match got.rs_reply with Error e -> Hashtbl.replace classes e.cls () | _ -> ()
  done;
  List.iter
    (fun c ->
      if not (Hashtbl.mem classes c) then Alcotest.failf "no %s error round-tripped" (Err.class_name c))
    Err.classes

(* An error reply is tag 3, a class byte, then the message: a byte that
   names no class is refused like any other malformed frame. *)
let unknown_error_class () =
  let body cls =
    let b = Buffer.create 64 in
    P.encode_response b { rs_id = 1; rs_lsn = 0; rs_reply = Error { cls; msg = "m" } };
    Buffer.sub b 4 (Buffer.length b - 4)
  in
  let user = body User and corrupt = body Corrupt in
  (* The two frames differ in the class byte alone. *)
  let at = ref (-1) in
  String.iteri (fun i c -> if c <> corrupt.[i] then at := i) user;
  Tutil.check_int "User's byte" 2 (Char.code user.[!at]);
  List.iter
    (fun byte ->
      match P.decode_response (String.mapi (fun i c -> if i = !at then Char.chr byte else c) user) with
      | _ -> Alcotest.failf "class byte %d accepted" byte
      | exception Codec.Corrupt _ -> ())
    [ List.length Err.classes; 7; 200; 255 ]

let truncated_frame () =
  let b = Buffer.create 64 in
  P.encode_request b { rq_id = 7; rq_trace = 0; rq_op = Exec "print 1;" };
  let whole = Buffer.contents b in
  (* Every proper prefix must yield "need more bytes", never a frame. *)
  for n = 0 to String.length whole - 1 do
    let rd = P.reader () in
    P.feed rd (Bytes.of_string (String.sub whole 0 n)) n;
    Tutil.check_bool "incomplete" true (P.next_frame rd = None)
  done;
  (* A truncated *body* (length prefix lies) is Corrupt at decode. *)
  let body =
    let rd = P.reader () in
    P.feed rd (Bytes.of_string whole) (String.length whole);
    match P.next_frame rd with Some body -> body | None -> assert false
  in
  let clipped = String.sub body 0 (String.length body - 1) in
  (match P.decode_request clipped with
  | _ -> Alcotest.fail "expected Corrupt on clipped body"
  | exception Codec.Corrupt _ -> ());
  (* ... and so are trailing bytes. *)
  match P.decode_request (body ^ "x") with
  | _ -> Alcotest.fail "expected Corrupt on trailing bytes"
  | exception Codec.Corrupt _ -> ()

let oversized_frame () =
  (* A hostile header announcing a huge body must be rejected from the 4
     header bytes alone — before any body arrives or is buffered. *)
  let b = Buffer.create 8 in
  Codec.put_u32 b (P.max_frame_len + 1);
  let hdr = Buffer.contents b in
  let rd = P.reader () in
  P.feed rd (Bytes.of_string hdr) (String.length hdr);
  (match P.next_frame rd with
  | _ -> Alcotest.fail "expected Corrupt on oversized header"
  | exception Codec.Corrupt _ -> ());
  (* The encoder refuses to build such a frame in the first place. *)
  match P.encode_request (Buffer.create 16) { rq_id = 1; rq_trace = 0; rq_op = Exec (String.make (P.max_frame_len + 1) 'x') } with
  | _ -> Alcotest.fail "expected Invalid_argument on oversized encode"
  | exception Invalid_argument _ -> ()

let garbage_handshake () =
  let rng = Prng.create 403 in
  Tutil.check_bool "good hello" true (P.parse_hello P.hello = Ok ());
  Tutil.check_bool "good reply" true (P.parse_hello_reply (P.hello_reply Accepted) = Ok ());
  (* Busy / version-mismatch replies render reasons. *)
  (match P.parse_hello_reply (P.hello_reply Busy) with
  | Error msg -> Tutil.check_bool "busy reason" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "busy must not parse as accepted");
  (match P.parse_hello_reply (P.hello_reply Bad_version) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version must not parse as accepted");
  (* Random garbage of the right length: rejected unless it happens to start
     with the magic (the prng won't produce that). *)
  for _ = 0 to 99 do
    let g = String.init P.hello_len (fun _ -> Char.chr (Prng.int rng 256)) in
    if String.sub g 0 4 <> P.magic then
      Tutil.check_bool "garbage hello rejected" true (Result.is_error (P.parse_hello g))
  done;
  (* Wrong lengths are rejected outright. *)
  Tutil.check_bool "short hello" true (Result.is_error (P.parse_hello "OD"));
  Tutil.check_bool "long hello" true (Result.is_error (P.parse_hello (P.hello ^ "x")));
  Tutil.check_bool "short reply" true (Result.is_error (P.parse_hello_reply "ODEP"))

(* There is one protocol version: a server answers a hello from an older
   client (v2 had no trace ids, v3 no conflict reply, v4 no error class,
   v5 shipped index keys with 8-byte numbers, v6 activation records keyed
   by tid alone, v7 snapshots with the log's LSN sidecar)
   with [Bad_version]
   and hangs up, and a replication primary refuses an older replica. *)
let old_versions_rejected () =
  let hello_v v =
    let b = Buffer.create 8 in
    Buffer.add_string b P.magic;
    Codec.put_u16 b v;
    Buffer.contents b
  in
  let dir = Tutil.temp_dir "proto-version" in
  let pid, port = Ode_served.Server.spawn ~db_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      List.iter
        (fun v ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let h = hello_v v in
              ignore (Unix.write_substring fd h 0 (String.length h));
              let buf = Bytes.create 64 in
              let rec read_all pos =
                match Unix.read fd buf pos (Bytes.length buf - pos) with
                | 0 -> pos
                | n -> read_all (pos + n)
              in
              let n = read_all 0 in
              Tutil.check_string
                (Printf.sprintf "v%d hello gets Bad_version, then EOF" v)
                (P.hello_reply Bad_version) (Bytes.sub_string buf 0 n)))
        [ 2; 3; 4; 5; 6; 7 ]);
  let repl_hello_v v = P.repl_magic ^ String.sub (hello_v v) 4 2 in
  Tutil.check_bool "current repl hello" true (P.parse_repl_hello P.repl_hello = Ok ());
  List.iter
    (fun v ->
      Tutil.check_bool
        (Printf.sprintf "v%d repl hello refused" v)
        true
        (Result.is_error (P.parse_repl_hello (repl_hello_v v))))
    [ 2; 3; 4; 5; 6; 7 ]

let reader_take () =
  let rd = P.reader () in
  P.feed rd (Bytes.of_string "abcdef") 6;
  Tutil.check_bool "short take" true (P.take rd 7 = None);
  Tutil.check_bool "take 4" true (P.take rd 4 = Some "abcd");
  Tutil.check_int "left" 2 (P.buffered rd);
  Tutil.check_bool "take rest" true (P.take rd 2 = Some "ef");
  Tutil.check_int "empty" 0 (P.buffered rd)

let suite =
  [
    ( "protocol",
      [
        Alcotest.test_case "fuzz request round-trips" `Quick fuzz_requests;
        Alcotest.test_case "fuzz response round-trips" `Quick fuzz_responses;
        Alcotest.test_case "unknown error class refused" `Quick unknown_error_class;
        Alcotest.test_case "truncated frames wait or reject" `Quick truncated_frame;
        Alcotest.test_case "oversized frames rejected early" `Quick oversized_frame;
        Alcotest.test_case "garbage handshakes rejected" `Quick garbage_handshake;
        Alcotest.test_case "old versions get Bad_version" `Quick old_versions_rejected;
        Alcotest.test_case "reader take semantics" `Quick reader_take;
      ] );
  ]
