(* Log-bucketed latency histograms, one per operation class (txn commit,
   query execute, WAL sync, page read/write, trigger firing, recovery).
   Bucket i covers [2^i, 2^(i+1)-1] nanoseconds (bucket 0 is [0,1]), so 63
   buckets span any int duration at a fixed ~2x relative error, which is
   plenty for p50/p95/p99 on latencies ranging from nanoseconds to seconds.
   A histogram of a count (wal.group_size: commits per sync) is created
   with [~measure:Count]; it shares the buckets and differs only in how
   it is rendered and exported.

   Always on: the sites are coarse operation boundaries, each costing two
   clock reads and one array bump (E18 pins a hot scan at one sample).
   Process-global, like Stats. *)

let nbuckets = 63

type measure = Nanoseconds | Count

type t = {
  name : string;
  measure : measure;
  counts : int array;
  mutable n : int;
  mutable sum_ns : int;
  mutable max_ns : int;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref [] (* newest first *)

let create ?(measure = Nanoseconds) name =
  match Hashtbl.find_opt registry name with
  | Some h -> h
  | None ->
      let h = { name; measure; counts = Array.make nbuckets 0; n = 0; sum_ns = 0; max_ns = 0 } in
      Hashtbl.replace registry name h;
      order := name :: !order;
      h

let find name = Hashtbl.find_opt registry name
let all () = List.rev_map (Hashtbl.find registry) !order

let bucket_index ns =
  if ns <= 1 then 0
  else begin
    let i = ref 0 and v = ref ns in
    while !v > 1 do
      incr i;
      v := !v lsr 1
    done;
    min (nbuckets - 1) !i
  end

let observe h ns =
  let ns = max 0 ns in
  let b = bucket_index ns in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1;
  h.sum_ns <- h.sum_ns + ns;
  if ns > h.max_ns then h.max_ns <- ns

let time h f =
  let t0 = Trace.now_ns () in
  match f () with
  | v ->
      observe h (Trace.now_ns () - t0);
      v
  | exception e ->
      observe h (Trace.now_ns () - t0);
      raise e

let count h = h.n
let max_ns h = h.max_ns
let mean_ns h = if h.n = 0 then 0. else float_of_int h.sum_ns /. float_of_int h.n

(* upper bound of bucket i, clamped to the observed max so the estimate
   never exceeds any actually-observed value *)
let bucket_upper i = if i = 0 then 1 else (1 lsl (i + 1)) - 1

let percentile_of counts n maxv p =
  if n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    let rec go i seen =
      if i >= nbuckets then maxv
      else
        let seen = seen + counts.(i) in
        if seen >= rank then min (bucket_upper i) maxv else go (i + 1) seen
    in
    go 0 0
  end

let percentile h p = percentile_of h.counts h.n h.max_ns p

type row = {
  r_name : string;
  r_measure : measure;
  r_count : int;
  r_sum_ns : int;
  r_max_ns : int;
  r_p50 : int;
  r_p95 : int;
  r_p99 : int;
}

let snapshot h =
  {
    r_name = h.name;
    r_measure = h.measure;
    r_count = h.n;
    r_sum_ns = h.sum_ns;
    r_max_ns = h.max_ns;
    r_p50 = percentile h 50.;
    r_p95 = percentile h 95.;
    r_p99 = percentile h 99.;
  }

let rows () = all () |> List.map snapshot |> List.sort (fun a b -> compare a.r_name b.r_name)

let reset h =
  Array.fill h.counts 0 nbuckets 0;
  h.n <- 0;
  h.sum_ns <- 0;
  h.max_ns <- 0

let reset_all () = List.iter reset (all ())

let format_ns ns =
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)

let format = function Nanoseconds -> format_ns | Count -> string_of_int
let suffix = function Nanoseconds -> "_ns" | Count -> ""

(* Equi-depth key distributions for the query planner's statistics
   subsystem. Unlike the latency histograms above, these are value
   histograms: each bucket holds ~total/buckets rows of an index's key
   space, bounded by real observed keys (order-preserving
   [Value.index_key] strings), so skew shows up as narrow buckets and
   selectivity estimates come out of bucket arithmetic rather than a
   uniformity assumption. Immutable once built — `.analyze` rebuilds
   them from a full scan; incremental commit maintenance only bumps the
   cardinality counters that decide staleness. *)
module Dist = struct
  type t = {
    total : int;            (* rows summarized *)
    distinct : int;         (* distinct keys summarized *)
    lo : string;            (* smallest key ("" when empty) *)
    bounds : string array;  (* inclusive upper bound per bucket, ascending *)
    counts : int array;     (* rows per bucket *)
    uniques : int array;    (* distinct keys per bucket *)
  }

  let empty = { total = 0; distinct = 0; lo = ""; bounds = [||]; counts = [||]; uniques = [||] }
  let default_buckets = 32
  let total d = d.total
  let distinct d = d.distinct
  let buckets d = Array.length d.bounds

  (* [keys] sorted ascending, duplicates allowed. Bucket edges are pushed
     past runs of equal keys so no key straddles two buckets — that keeps
     the per-bucket distinct counts additive and eq-estimates sharp on
     heavy hitters (a hot key that fills a whole bucket estimates as the
     whole bucket). *)
  let of_sorted ?(buckets = default_buckets) keys =
    let n = Array.length keys in
    if n = 0 then empty
    else begin
      let per = max 1 ((n + buckets - 1) / buckets) in
      let bounds = ref [] and counts = ref [] and uniques = ref [] in
      let start = ref 0 in
      while !start < n do
        let stop = ref (min n (!start + per)) in
        while !stop < n && keys.(!stop) = keys.(!stop - 1) do
          incr stop
        done;
        let stop = !stop in
        let u = ref 1 in
        for i = !start + 1 to stop - 1 do
          if keys.(i) <> keys.(i - 1) then incr u
        done;
        bounds := keys.(stop - 1) :: !bounds;
        counts := (stop - !start) :: !counts;
        uniques := !u :: !uniques;
        start := stop
      done;
      {
        total = n;
        distinct = List.fold_left ( + ) 0 !uniques;
        lo = keys.(0);
        bounds = Array.of_list (List.rev !bounds);
        counts = Array.of_list (List.rev !counts);
        uniques = Array.of_list (List.rev !uniques);
      }
    end

  (* Estimated fraction of rows whose key equals [key]: rows-per-distinct
     within the containing bucket. *)
  let eq_fraction d key =
    if d.total = 0 then 0.
    else if key < d.lo then 0.
    else begin
      let nb = Array.length d.bounds in
      let rec go i =
        if i >= nb then 0.
        else if key <= d.bounds.(i) then
          float_of_int d.counts.(i)
          /. float_of_int (max 1 d.uniques.(i))
          /. float_of_int d.total
        else go (i + 1)
      in
      go 0
    end

  (* Estimated fraction of rows in the range bounded by [lo]/[hi]
     (either side optional; the bool is inclusivity, which at bucket
     granularity only matters for the half-bucket partial estimate).
     Buckets wholly inside count fully, partially-overlapped buckets
     count half — coarse, but monotone and cheap. *)
  let range_fraction d lo hi =
    if d.total = 0 then 0.
    else begin
      let nb = Array.length d.bounds in
      let rows = ref 0. in
      for i = 0 to nb - 1 do
        let bl = if i = 0 then d.lo else d.bounds.(i - 1) in
        let bh = d.bounds.(i) in
        let above_lo =
          match lo with
          | None -> `Full
          | Some (k, _) -> if k <= bl then `Full else if k > bh then `None else `Part
        in
        let below_hi =
          match hi with
          | None -> `Full
          | Some (k, _) -> if k >= bh then `Full else if k < bl then `None else `Part
        in
        let f =
          match (above_lo, below_hi) with
          | `None, _ | _, `None -> 0.
          | `Full, `Full -> 1.
          | _ -> 0.5
        in
        rows := !rows +. (f *. float_of_int d.counts.(i))
      done;
      min 1. (!rows /. float_of_int d.total)
    end

  let encode b d =
    Codec.put_int b d.total;
    Codec.put_int b d.distinct;
    Codec.put_string b d.lo;
    Codec.put_u32 b (Array.length d.bounds);
    Array.iter (Codec.put_string b) d.bounds;
    Array.iter (Codec.put_int b) d.counts;
    Array.iter (Codec.put_int b) d.uniques

  let decode c =
    let total = Codec.get_int c in
    let distinct = Codec.get_int c in
    let lo = Codec.get_string c in
    let nb = Codec.get_u32 c in
    let bounds = Array.init nb (fun _ -> Codec.get_string c) in
    let counts = Array.init nb (fun _ -> Codec.get_int c) in
    let uniques = Array.init nb (fun _ -> Codec.get_int c) in
    { total; distinct; lo; bounds; counts; uniques }
end

(* Sorted by name (like [rows]): histogram creation order depends on which
   code paths ran first, sorted output diffs stably. *)
let summary () =
  let rs = rows () in
  let namew = List.fold_left (fun w r -> max w (String.length r.r_name)) 9 rs in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-*s %10s %10s %10s %10s %10s %10s\n" namew "operation" "count" "p50" "p95"
       "p99" "max" "mean");
  List.iter
    (fun r ->
      let mean = if r.r_count = 0 then 0 else r.r_sum_ns / r.r_count in
      let f = format r.r_measure in
      Buffer.add_string b
        (Printf.sprintf "%-*s %10d %10s %10s %10s %10s %10s\n" namew r.r_name r.r_count (f r.r_p50)
           (f r.r_p95) (f r.r_p99) (f r.r_max_ns) (f mean)))
    rs;
  Buffer.contents b
