(** Planner statistics: per-extent cardinalities and per-index equi-depth
    key histograms, persisted under the ['S'] key as one encoded snapshot
    written through an ordinary transaction (so WAL, recovery, replication
    and dump all carry it). Cardinalities are maintained incrementally from
    [Store.apply_writes]; histograms are rebuilt only by analyze, and
    {!idx_stat} stops answering once they are [stale]. *)

val fresh : unit -> Types.ostats
(** Empty statistics for a newly constructed database handle. *)

val note_create : Types.db -> string -> unit
(** An object header was created (applied commit/recovery/replication):
    bump its class cardinality and the mods-since-analyze tally. *)

val note_delete : Types.db -> string -> unit

val install : Types.db -> string -> unit
(** Decode a persisted snapshot into [db.stats] (resets mods).
    @raise Ode_util.Codec.Corrupt on a malformed payload. *)

val compute : Types.db -> string
(** Full committed-state scan: exact per-class cardinalities plus one
    equi-depth histogram per index, returned as the encoded snapshot to
    write under [Keys.stats]. *)

val analyzed : Types.db -> bool

val stale : Types.db -> bool
(** True when no analyze has run or enough header creates/deletes have
    accumulated since the last one that the histograms are untrustworthy. *)

val card : Types.db -> int -> int option
(** Live cardinality estimate for a class id. *)

val idx_stat : Types.db -> int -> Types.idx_stat option
(** Key-distribution statistics for an index id (analyze-time snapshot);
    [None] while the statistics are {!stale}. *)

val describe : Types.db -> string
(** One-line human summary for the shell. *)
