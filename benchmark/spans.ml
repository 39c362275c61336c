(* The traced run's span recorder. Spans come only from the benchmark's own
   code, around calls into the engine's public functions; their names are
   the per-stage names the engine itself is meant to adopt (stage.parse,
   stage.plan, stage.execute, stage.commit, stage.fsync_wait,
   stage.recover, stage.decode, stage.reply), plus "op" around each whole
   operation and "client.roundtrip" around each wire call.

   Each domain that records owns one [t]. A span's self time (its duration
   minus the time its child spans cover) is summed per name as the span
   closes; the first [keep] spans are also kept whole for the Chrome trace
   written at exit. While [on] is false, [with_span] is a flag test and a
   call: the traced run alternates operations with it on and off, and the
   throughput ratio of the two is the tracing overhead. *)

type span = { id : int; name : string; start : int; stop : int; parent : int; op : int; tid : int }
type frame = { f_id : int; f_op : int; f_start : int; mutable f_child : int }

type t = {
  tid : int;
  mutable on : bool;
  mutable stack : frame list;
  mutable kept : span list;
  mutable nkept : int;
  self_ns : (string, int ref) Hashtbl.t;
}

let next_id = Atomic.make 1
let keep = 50_000
let create tid = { tid; on = false; stack = []; kept = []; nkept = 0; self_ns = Hashtbl.create 16 }

let bump t key ns =
  match Hashtbl.find_opt t.self_ns key with
  | Some r -> r := !r + ns
  | None -> Hashtbl.add t.self_ns key (ref ns)

(* [op] tags a root span with its operation number (children inherit it);
   [tag] additionally sums the self time under "name.tag". *)
let with_span t ?(op = 0) ?tag name f =
  if not t.on then f ()
  else begin
    let parent, op = match t.stack with p :: _ -> (p.f_id, p.f_op) | [] -> (0, op) in
    let id = Atomic.fetch_and_add next_id 1 in
    let fr = { f_id = id; f_op = op; f_start = Measure.now_ns (); f_child = 0 } in
    t.stack <- fr :: t.stack;
    let finish () =
      let stop = Measure.now_ns () in
      t.stack <- List.tl t.stack;
      let dur = stop - fr.f_start in
      (match t.stack with p :: _ -> p.f_child <- p.f_child + dur | [] -> ());
      let self = dur - fr.f_child in
      bump t name self;
      Option.iter (fun tag -> bump t (name ^ "." ^ tag) self) tag;
      if t.nkept < keep then begin
        t.kept <- { id; name; start = fr.f_start; stop; parent; op; tid = t.tid } :: t.kept;
        t.nkept <- t.nkept + 1
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Tracing overhead. In a traced run each recorder is on for even-numbered
   operations and off for odd ones, so both halves see the same mix and the
   same drift; the wall time from one operation's start to the next is
   charged to the mode of the first. *)
type split = {
  mutable last : int;  (** start of the operation in progress, 0 between operations *)
  mutable n_on : int;
  mutable ns_on : int;
  mutable n_off : int;
  mutable ns_off : int;
}

let split () = { last = 0; n_on = 0; ns_on = 0; n_off = 0; ns_off = 0 }

let close_op sp t now =
  if sp.last > 0 then begin
    let dt = now - sp.last in
    if t.on then begin
      sp.n_on <- sp.n_on + 1;
      sp.ns_on <- sp.ns_on + dt
    end
    else begin
      sp.n_off <- sp.n_off + 1;
      sp.ns_off <- sp.ns_off + dt
    end
  end

(* Call at the start of measured operation [i]; [traced] is the run mode. *)
let next_op sp t ~traced i =
  let now = Measure.now_ns () in
  close_op sp t now;
  sp.last <- now;
  t.on <- traced && i mod 2 = 0

(* Call once after the last measured operation. *)
let end_ops sp t =
  close_op sp t (Measure.now_ns ());
  sp.last <- 0;
  t.on <- false

(* Untraced over traced throughput, minus one, pooled over recorders. *)
let overhead sps =
  let sum f = List.fold_left (fun a sp -> a + f sp) 0 sps in
  let rate n ns = float_of_int (sum n) /. float_of_int (max 1 (sum ns)) in
  (rate (fun s -> s.n_off) (fun s -> s.ns_off) /. rate (fun s -> s.n_on) (fun s -> s.ns_on)) -. 1.

let traced_ops sps = List.fold_left (fun a sp -> a + sp.n_on) 0 sps

(* Self nanoseconds per span name (and per "name.tag"), summed over [ts]. *)
let self_ns ts =
  let all = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun k v ->
          match Hashtbl.find_opt all k with
          | Some r -> r := !r + !v
          | None -> Hashtbl.add all k (ref !v))
        t.self_ns)
    ts;
  fun name -> match Hashtbl.find_opt all name with Some r -> !r | None -> 0

let write_chrome path ts =
  let spans = List.concat_map (fun t -> t.kept) ts in
  let t0 = List.fold_left (fun acc s -> min acc s.start) max_int spans in
  let us ns = Json.Num (float_of_int ns /. 1000.) and int i = Json.Num (float_of_int i) in
  let event s =
    Json.Obj
      [
        ("name", Str s.name);
        ("cat", Str "odebench");
        ("ph", Str "X");
        ("ts", us (s.start - t0));
        ("dur", us (s.stop - s.start));
        ("pid", Num 1.);
        ("tid", int s.tid);
        ("args", Obj [ ("id", int s.id); ("parent", int s.parent); ("op", int s.op) ]);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Obj [ ("traceEvents", Arr (List.rev_map event spans)) ])))
