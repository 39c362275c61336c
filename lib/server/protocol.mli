(** The ODE wire protocol: a length-prefixed binary framing of shell
    requests and responses, built on {!Ode_util.Codec}.

    A connection opens with a fixed-size plaintext-free handshake — the
    client sends [magic ^ version], the server replies [magic ^ version ^
    status] — after which both sides exchange frames: a [u32] body length
    followed by the body. There is one protocol version: the server (and a
    replication primary) accepts a hello carrying exactly {!version} and
    answers any other with [Bad_version], so both sides always encode
    frames the same way. Frame bodies over {!max_frame_len} are rejected
    before buffering (a 4-byte header is enough to detect them), so a
    malicious or corrupt peer cannot make the server allocate unboundedly.

    Malformed input raises {!Ode_util.Codec.Corrupt}; both sides treat that
    as fatal for the connection. *)

(** {1 Handshake} *)

val magic : string
(** 4 bytes on the front of both hello messages. *)

val version : int
(** The protocol version, sent as a u16. *)

val hello : string
(** What a client sends immediately after connecting. *)

val hello_len : int

type status = Accepted | Busy | Bad_version

val hello_reply : status -> string
(** The server's fixed-size answer, carrying {!version}; on anything but
    [Accepted] the server closes the connection right after writing it. *)

val hello_reply_len : int

val parse_hello : string -> (unit, string) result
(** Validate a client hello: right length, magic and exactly {!version}. *)

val parse_hello_reply : string -> (unit, string) result
(** Validate a server hello reply. [Error] carries a rendered reason
    ("server busy", version mismatch, garbage). *)

(** {1 Requests and responses} *)

type op =
  | Ping
  | Exec of string  (** run a program through {!Ode.Shell.exec_catching} *)
  | Query of string  (** bodiless forall; rows come back rendered *)
  | Dot of string  (** a [.command] line *)
  | Close  (** polite goodbye; the server replies then closes *)

type request = { rq_id : int; rq_trace : int; rq_op : op }
(** [rq_trace] is the client-assigned trace id (0 = untraced). *)

type reply =
  | Pong
  | Output of string  (** captured [print] output of an [Exec] / [Dot] *)
  | Rows of string list  (** [Query] results, one rendered object per row *)
  | Error of Ode_util.Ode_error.t
      (** a class byte, its position in {!Ode_util.Ode_error.classes},
          then the message. A [Conflict] transaction was aborted
          server-side and is retryable by re-executing it. *)

type response = { rs_id : int; rs_lsn : int; rs_reply : reply }
(** [rs_lsn] is the serving database's commit LSN at response time: on the
    primary, the LSN whose durability the reply's delivery attests (the
    server only flushes replies after the covering fsync); on a replica,
    the replication apply position the answer reflects. Clients track it
    for read-your-writes routing across primary and replicas. *)

val max_frame_len : int
(** Upper bound on a frame body (16 MiB). *)

val encode_request : Buffer.t -> request -> unit
(** Appends a complete frame (length prefix included). Raises
    [Invalid_argument] if the payload would exceed {!max_frame_len}. *)

val encode_response : Buffer.t -> response -> unit
(** Appends a complete frame (length prefix included). *)

val decode_request : string -> request
(** Decode one frame body. Raises {!Ode_util.Codec.Corrupt} on malformed
    or trailing bytes. *)

val decode_response : string -> response

(** {1 Incremental frame extraction}

    A [reader] accumulates raw bytes as they arrive from a socket and
    yields complete frame bodies (and, before that, the raw handshake
    bytes). *)

type reader

val reader : ?max_len:int -> unit -> reader
(** [max_len] (default {!max_frame_len}) caps acceptable frame bodies;
    replication connections pass {!repl_max_frame_len} for snapshots. *)

val feed : reader -> bytes -> int -> unit
(** [feed r buf n] appends the first [n] bytes of [buf]. *)

val buffered : reader -> int

val take : reader -> int -> string option
(** [take r n] removes and returns exactly [n] raw bytes, or [None] if
    fewer are buffered — used for the unframed handshake. *)

val next_frame : reader -> string option
(** The next complete frame body, if one is fully buffered. Raises
    {!Ode_util.Codec.Corrupt} as soon as a frame header announces a body
    over the reader's cap, without waiting for the body. *)

(** {1 Replication stream}

    A replica connects to the primary's replication port, sends
    {!repl_hello} (unframed magic + version), then a framed {!R_hello}
    announcing its commit LSN. The primary replies {!R_resume} (it will
    stream the missing WAL suffix) or {!R_snapshot} (the store was
    checkpointed past the replica's position: here are the data files),
    then a stream of {!R_batch} frames — each a post-fsync WAL batch tagged
    with the commit-LSN range it advances. The replica answers applied
    batches with {!R_ack}, which drives the primary's lag gauges and
    semi-sync ack gating. *)

type repl_msg =
  | R_hello of int  (** replica's current commit LSN; fresh store = 0 *)
  | R_resume of int  (** primary streams WAL batches from this LSN *)
  | R_snapshot of int * (string * string) list
      (** store snapshot at this LSN: [(file name, contents)] to install *)
  | R_batch of int * int * string
      (** [(from_lsn, to_lsn, frames)]: raw WAL frames advancing
          [(from_lsn, to_lsn]] *)
  | R_ack of int  (** replica has durably applied up to this LSN *)

val repl_magic : string
val repl_max_frame_len : int
(** Frame cap for replication connections (256 MiB — snapshots carry whole
    data files). *)

val repl_hello : string
val repl_hello_len : int
val parse_repl_hello : string -> (unit, string) result

val encode_repl : Buffer.t -> repl_msg -> unit
(** Appends a complete frame (length prefix included). *)

val decode_repl : string -> repl_msg
(** Decode one frame body. Raises {!Ode_util.Codec.Corrupt} when
    malformed. *)
