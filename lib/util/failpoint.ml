(* Fault-injection failpoints.

   A failpoint is a named site in a side-effecting code path (a page write,
   an fsync, a WAL append batch). Sites are registered statically by the
   module that owns them and are inert until a test arms them with a trigger
   policy and an action. When an armed site fires, the owning code either
   simulates process death ([Crash]) or applies a partial effect first (a
   short write, a flipped bit, a silently skipped syscall) and then crashes
   or continues, depending on the action.

   Disarmed sites cost two integer increments and a record-field read per
   hit, so the instrumentation stays compiled into production paths. *)

exception Crash of string

type action =
  | Crash_site
  | Short_effect of float
  | Flip_bit of int
  | Skip_effect

type policy =
  | Always
  | One_shot
  | After_hits of int
  | Probability of float

type arming = {
  policy : policy;
  act : action;
  prng : Prng.t;
  mutable remaining : int; (* hits to skip before firing (counted policies) *)
}

type t = {
  name : string;
  mutable hits : int;
  mutable fired : int;
  mutable armed : arming option;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let site name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
      let s = { name; hits = 0; fired = 0; armed = None } in
      Hashtbl.add registry name s;
      s

let name s = s.name
let sites () = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) registry [])

let arm ?(seed = 0) name ~policy ~action =
  let s = site name in
  let remaining = match policy with After_hits n -> n | _ -> 0 in
  s.armed <- Some { policy; act = action; prng = Prng.create seed; remaining }

let disarm name = match Hashtbl.find_opt registry name with
  | Some s -> s.armed <- None
  | None -> ()

let clear () = Hashtbl.iter (fun _ s -> s.armed <- None) registry

let hits name = match Hashtbl.find_opt registry name with Some s -> s.hits | None -> 0
let fired name = match Hashtbl.find_opt registry name with Some s -> s.fired | None -> 0

let hit s =
  s.hits <- s.hits + 1;
  match s.armed with
  | None -> None
  | Some a ->
      let fire =
        match a.policy with
        | Always -> true
        | One_shot | After_hits _ ->
            if a.remaining > 0 then begin
              a.remaining <- a.remaining - 1;
              false
            end
            else true
        | Probability p -> Prng.float a.prng 1.0 < p
      in
      if not fire then None
      else begin
        s.fired <- s.fired + 1;
        (* Counted policies fire exactly once. *)
        (match a.policy with
        | One_shot | After_hits _ -> s.armed <- None
        | Always | Probability _ -> ());
        Some a.act
      end

let crash s = raise (Crash s.name)
