(** One classified error, from the raise to the client: the class says what
    the caller can do about it. {!Ode.Shell.classify} decides the class of
    any exception; the wire carries it as one byte, and it drives the
    client's retry and failover and the shell's exit code. *)

type cls =
  | Conflict  (** lost first-committer-wins: replay the transaction *)
  | Redirect  (** a read-only standby refused a write: ask the primary *)
  | User  (** a mistake in the program: parse, type, schema, constraint ... *)
  | Resource  (** a limit or an unavailable resource: pool, closed store, file *)
  | Corrupt  (** stored data failed its checks *)
  | Internal  (** an engine bug *)

type t = { cls : cls; msg : string }

exception Error of t

val fail : cls -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail cls fmt ...] raises [Error] with the formatted message. *)

val user : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail User]. *)

val classes : cls list
(** Every class, in declaration order. *)

val class_name : cls -> string
(** The constructor's name in lower case, ["conflict"] ... ["internal"]. *)
