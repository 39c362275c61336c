(** Bounded multi-producer multi-consumer channel (mutex + conditions).

    FIFO across producers as far as each producer observes its own pushes;
    consumers receive values in queue order. Safe to share across domains. *)

type 'a t

val create : int -> 'a t
(** [create cap] makes a channel holding at most [max 1 cap] values. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Blocks while the channel is full. *)

val try_push : 'a t -> 'a -> bool
(** [false] (and no effect) when the channel is full. Never blocks. *)

val pop : 'a t -> 'a
(** Blocks while the channel is empty. *)

val try_pop : 'a t -> 'a option
(** [None] when the channel is empty. Never blocks. *)

val length : 'a t -> int
(** Instantaneous occupancy (racy by nature; a backpressure hint). *)
