(** Fault-injection failpoints for crash-recovery testing.

    Side-effecting code paths (page writes, fsyncs, WAL batches) register
    named sites and consult them on every hit. Tests arm a site with a
    trigger {!policy} and an {!action}; when the site fires, the owning code
    simulates a fault: process death ({!Crash}), a short write that persists
    only a prefix, a flipped bit in the written image, or a syscall that
    silently does nothing.

    Disarmed sites are nearly free, so the instrumentation is compiled into
    production code unconditionally. The registry is process-global and
    single-threaded, like the rest of the engine. *)

exception Crash of string
(** Simulated process death at the named site. Test harnesses catch this,
    abandon the engine instance without flushing, and reopen from disk. *)

(** What the instrumented site should do when the point fires. Sites ignore
    action constructors that make no sense for them (e.g. [Short_effect] on
    an fsync). *)
type action =
  | Crash_site           (** die before performing the effect *)
  | Short_effect of float
      (** persist only this fraction of the effect (a torn write), then die *)
  | Flip_bit of int
      (** corrupt one bit of the written image (index taken mod size), then die *)
  | Skip_effect
      (** skip the effect but report success and keep running — models lying
          hardware (e.g. an fsync without durability); generally
          unrecoverable, used to prove a harness can detect real bugs *)

type policy =
  | Always                (** fire on every hit *)
  | One_shot              (** fire on the next hit, then disarm *)
  | After_hits of int     (** skip [n] hits, fire once, then disarm *)
  | Probability of float  (** fire each hit with probability [p] *)

type t
(** A registered site handle. *)

val site : string -> t
(** [site name] registers (idempotently) and returns the site. Owning
    modules call this at toplevel so the registry is complete at load. *)

val name : t -> string

val sites : unit -> string list
(** All registered site names, sorted. *)

val arm : ?seed:int -> string -> policy:policy -> action:action -> unit
(** Arm a site (registering it if needed). [seed] feeds the per-arming PRNG
    used by [Probability]. Re-arming replaces the previous arming. *)

val disarm : string -> unit

val clear : unit -> unit
(** Disarm every site (counters are kept). *)

val hit : t -> action option
(** Record a hit; if the site is armed and its policy fires, return the
    action for the caller to interpret. *)

val crash : t -> unit
(** Raise {!Crash} with the site's name. *)

val hits : string -> int
val fired : string -> int
