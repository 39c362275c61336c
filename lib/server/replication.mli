(** WAL-shipping replication: the primary streams post-fsync commit batches
    to warm standbys, which replay them through the engine's recovery redo
    path and serve read-only queries.

    Topology: one primary owns writes; each replica opens its own copy of
    the store, announces its commit LSN, and receives either the missing
    WAL suffix (resume) or a checkpoint snapshot of the data files
    (bootstrap / too far behind), then a stream of batches — each shipped
    only {e after} the primary's fsync, so a replica can never hold a
    commit its primary could still lose. Replicas acknowledge applied
    batches; the primary tracks lag from the acks and can gate client acks
    on them (semi-sync — see {!Server}).

    This module is the protocol logic at both ends; the event-loop plumbing
    (listening, streaming, ack bookkeeping, promotion) lives in
    {!Server}. *)

exception Resync of string
(** The stream broke discipline (gap, overlap, torn frames, frames naming
    other LSNs than the batch advertised): tear the connection down and
    re-handshake from the exact local position. *)

(** {1 Primary side} *)

type hello_answer =
  | Resume of { from_lsn : int; to_lsn : int; backlog : string }
      (** stream from [from_lsn]: [backlog] is the already-durable suffix
          [(from_lsn, to_lsn]], possibly empty *)
  | Snapshot of { lsn : int; files : (string * string) list }
      (** the store's files at a fresh checkpoint, LSN included *)

val answer_hello : Ode.Database.t -> replica_lsn:int -> hello_answer
(** Decide what a replica at [replica_lsn] needs. Falls back to a snapshot
    when the WAL no longer reaches back to its position (checkpointed away)
    or the replica claims commits this primary never made durable
    (divergence). *)

val data_files : string list
val snapshot_files : string list

(** {1 Replica side} *)

type upstream = { up_fd : Unix.file_descr; up_rd : Protocol.reader }
(** An established replication connection (blocking during handshake; the
    serving loop switches it to non-blocking). Frames already buffered in
    [up_rd] must be drained before selecting on [up_fd]. *)

val bootstrap :
  ?attempts:int ->
  ?delay:float ->
  db_dir:string ->
  host:string ->
  port:int ->
  unit ->
  Ode.Database.t * upstream
(** Bring up a warm standby: open (creating if needed) the store in
    [db_dir], handshake with the primary's replication port, install a
    shipped snapshot if the primary sends one, and return the database —
    already marked read-only — with the live upstream. Retries connecting
    [attempts] times [delay] seconds apart (replicas routinely start before
    their primary). *)

val reconnect :
  host:string -> port:int -> Ode.Database.t -> (upstream, string) result
(** Re-handshake after a stream fault, keeping the open database. Only a
    resume is accepted; a primary that demands a snapshot means the replica
    fell behind a checkpoint and must be restarted (live store replacement
    is deliberately not attempted). *)

val apply_batch :
  Ode.Database.t ->
  from_lsn:int ->
  to_lsn:int ->
  data:string ->
  [ `Applied | `Duplicate ]
(** Replay one shipped batch ({!Ode.Database.apply_replicated}, timed into
    the [repl.apply] histogram). A batch at or below the local position is
    skipped as a duplicate (redelivery after resync — counted, not an
    error); a gap, overlap, torn frame, or frames that do not name exactly
    the LSNs [(from_lsn, to_lsn]] raise {!Resync} before anything is logged
    or applied. *)

(**/**)

val install_snapshot : db_dir:string -> (string * string) list -> unit
val handshake :
  host:string -> port:int -> lsn:int -> upstream * Protocol.repl_msg
