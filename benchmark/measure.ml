(* Clock, latency samples and the order statistics every report uses. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* A growable array of per-operation latencies, in milliseconds, each with
   the time its operation completed, in ns. Samples are kept whole (never
   bucketed) so percentiles are exact. *)
type samples = { mutable lat : float array; mutable at : int array; mutable n : int }

let samples () = { lat = Array.make 1024 0.; at = Array.make 1024 0; n = 0 }

let add s ~at v =
  if s.n = Array.length s.lat then begin
    s.lat <- Array.append s.lat (Array.make s.n 0.);
    s.at <- Array.append s.at (Array.make s.n 0)
  end;
  s.lat.(s.n) <- v;
  s.at.(s.n) <- at;
  s.n <- s.n + 1

let count s = s.n

let merge_into dst src =
  for i = 0 to src.n - 1 do
    add dst ~at:src.at.(i) src.lat.(i)
  done

let sorted s =
  let a = Array.sub s.lat 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; [q] in (0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median_of_list l = percentile (sorted_of_list l) 0.5

let geomean = function
  | [] -> nan
  | l -> exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

(* Python's [statistics.quantiles(values, n=4)] (the default "exclusive"
   method), so spreads printed here match the ones computed from the
   contract's JSON lines. Needs at least two values. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let ld = Array.length d in
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.)
    [ 1; 2; 3 ]

(* The measurement window runs a fixed, seed-determined sequence of
   [budget] operations, so two builds measured with the same seed do
   identical work; the first 5% warm up and are not measured. A build
   more than [cap] times slower than the sequence was sized for is cut off
   there, so a run still ends in bounded time. Callers loop on [warming],
   then on [measuring]; [i] is the index of the next operation and [since]
   when measuring began. *)
type window = { warm : int; budget : int; cap_ns : int }

let cap = 3.
let window ~budget ~seconds =
  { warm = budget / 20; budget; cap_ns = int_of_float (cap *. seconds *. 1e9) }
let warming w i = i < w.warm
let measuring w ~since i = i < w.budget && now_ns () - since < w.cap_ns

(* Operations completed per second in [t0, t1] (ns), over the samples of
   every kind. *)
let throughput kinds ~t0 ~t1 =
  let n = ref 0 in
  List.iter
    (fun s ->
      for k = 0 to s.n - 1 do
        if s.at.(k) >= t0 && s.at.(k) <= t1 then incr n
      done)
    kinds;
  float_of_int !n /. secs_of_ns (max 1 (t1 - t0))
