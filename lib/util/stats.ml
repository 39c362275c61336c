(* Global operation counters, kept in a registry of named slots. The owning
   module registers each counter once at initialization and keeps the
   handle, exactly like [Histogram.create]; snapshot/diff/pp/to_list all
   derive from the registry. A handle is the slot's [int ref], so a bump
   is one add; a snapshot is the plain int array of live values at the
   time it was taken, in registration order. *)

type group = Workload | Recovery
type kind = Counter | Gauge
type snapshot = int array
type counter = int ref

type def = { name : string; group : group; kind : kind; cell : counter }

let slots : def array ref = ref [||] (* registration order *)
let index : (string, int) Hashtbl.t = Hashtbl.create 64

let counter ?(group = Workload) ?(kind = Counter) name =
  match Hashtbl.find_opt index name with
  | Some i ->
      let s = (!slots).(i) in
      if s.group <> group || s.kind <> kind then
        invalid_arg (Printf.sprintf "Stats.counter: %S is registered with another group or kind" name);
      s.cell
  | None ->
      let s = { name; group; kind; cell = ref 0 } in
      Hashtbl.replace index name (Array.length !slots);
      slots := Array.append !slots [| s |];
      s.cell

let incr c = c := !c + 1
let add c n = c := !c + n
let set c n = c := n

let kind_of name =
  match Hashtbl.find_opt index name with Some i -> (!slots).(i).kind | None -> Counter

(* Live gauges: sampled (not stored) values read through a callback at
   exposition time — current connections, pending commits, cache residency.
   Unlike counters these are registered by the owning subsystem when it
   comes up (a server, a database), and a re-registration under the same
   name replaces the sampler: reopening a database or restarting an
   embedded server keeps the gauge pointing at the live instance. *)
let gauge_defs : (string * (unit -> int)) list ref = ref []

let register_gauge name fn = gauge_defs := (name, fn) :: List.remove_assoc name !gauge_defs
let unregister_gauge name = gauge_defs := List.remove_assoc name !gauge_defs

let gauges () =
  List.sort compare (List.map (fun (n, fn) -> (n, try fn () with _ -> 0)) !gauge_defs)

let snapshot () = Array.map (fun s -> !(s.cell)) !slots
let reset () = Array.iter (fun s -> s.cell := 0) !slots
let zero () = Array.make (Array.length !slots) 0

(* A slot read that tolerates short arrays, so snapshots taken before a
   late registration (module initialization order) still diff cleanly. *)
let slot s i = if i < Array.length s then s.(i) else 0

let diff a b = Array.init (max (Array.length a) (Array.length b)) (fun i -> slot a i - slot b i)

let accum ~into a b =
  for i = 0 to Array.length into - 1 do
    into.(i) <- into.(i) + slot a i - slot b i
  done

let registered () = Array.to_list (Array.map (fun s -> s.name) !slots)
let to_list snap = Array.to_list (Array.mapi (fun i s -> (s.name, slot snap i)) !slots)

let get snap name =
  match Hashtbl.find index name with i -> slot snap i | exception Not_found -> 0

(* pp derives from the registry: every counter of the group, name = value,
   so new registrations show up in `.stats` with no further edits. Output
   is sorted by counter name, not registration order — registration order
   depends on which modules initialized first, and sorted output diffs
   stably regardless. *)
let pp_group g ppf snap =
  let named =
    Array.to_list (Array.mapi (fun i s -> (s, slot snap i)) !slots)
    |> List.filter (fun (s, _) -> s.group = g)
    |> List.sort (fun (a, _) (b, _) -> compare a.name b.name)
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "  ")
    (fun ppf (s, v) -> Format.fprintf ppf "%s %d" s.name v)
    ppf named

let pp ppf snap = pp_group Workload ppf snap
let pp_recovery ppf snap = pp_group Recovery ppf snap
