(* Lock-striped page cache. Frames live in per-stripe LRUs, each behind its
   own mutex (stripe = page_no mod nstripes, so sequential pages spread
   round-robin); pin/unpin/mark_dirty are safe to call concurrently from
   reader domains. Write-back stays a single crash-atomic batch: flush takes
   a global flush mutex, then every stripe lock in ascending order, so a
   flush still sees one consistent dirty set.

   Lock order (outermost first): flush_mu -> stripe locks (ascending) ->
   Disk's internal lock. [pin] holds exactly one stripe lock and never the
   flush mutex, releasing the stripe before any global flush, so the
   hierarchy has no cycles.

   A no-flush section ([with_no_flush]) brackets a multi-page update that
   is only consistent once complete, such as a B+tree split. While one is
   open, eviction takes clean victims only and a stripe with none goes
   over capacity instead of flushing; the outermost section trims the
   stripes back on exit, flushing then if it must. So a pressure flush
   never writes back a half-applied update. *)

module Failpoint = Ode_util.Failpoint

type frame = {
  no : int;
  buf : bytes;
  pins : int Atomic.t; (* raised under the stripe lock, lowered without it *)
  mutable dirty : bool;
}

let fp_flush = Failpoint.site "pool.flush"
let fp_evict = Failpoint.site "pool.evict"

let c_pool_hits = Ode_util.Stats.counter "pool_hits"
let c_pool_misses = Ode_util.Stats.counter "pool_misses"

type stripe = { mu : Mutex.t; frames : (int, frame) Ode_util.Lru.t }

type t = {
  disk : Disk.t;
  cap : int;
  stripes : stripe array;
  flush_mu : Mutex.t;
  no_flush : int Atomic.t; (* open no-flush sections; opened under flush_mu *)
  mutable pre_write : unit -> unit;
}

exception Pool_exhausted

let data f = f.buf
let page_no f = f.no

(* Power-of-two stripe count, one stripe per ~32 frames capped at 16, so the
   tiny pools unit tests build (capacity 1..8) keep exact single-LRU
   semantics while production-sized pools (>=64 pages) stripe. *)
let stripe_count cap =
  let target = min 16 (max 1 (cap / 32)) in
  let rec pow2 n = if n * 2 <= target then pow2 (n * 2) else n in
  pow2 1

let create ?(capacity = 256) disk =
  let n = stripe_count capacity in
  let per = max 1 (capacity / n) in
  {
    disk;
    cap = capacity;
    stripes = Array.init n (fun _ -> { mu = Mutex.create (); frames = Ode_util.Lru.create per });
    flush_mu = Mutex.create ();
    no_flush = Atomic.make 0;
    pre_write = (fun () -> ());
  }

let set_pre_write t f = t.pre_write <- f
let disk t = t.disk
let capacity t = t.cap
let stripes t = Array.length t.stripes

(* Residency gauge: frames currently cached, summed per stripe under its
   lock (the sum is not one atomic cut — fine for monitoring). *)
let resident t =
  Array.fold_left
    (fun n s -> n + Mutex.protect s.mu (fun () -> Ode_util.Lru.length s.frames))
    0 t.stripes
let page_count t = Disk.page_count t.disk
let stripe_of t n = t.stripes.(n land (Array.length t.stripes - 1))

let lock_all t = Array.iter (fun s -> Mutex.lock s.mu) t.stripes
let unlock_all t = Array.iter (fun s -> Mutex.unlock s.mu) t.stripes

(* Persist every dirty frame as one crash-atomic batch (double-write
   journalled and fsynced by the disk layer), caller holding [flush_mu].
   Returns false when there was nothing to write. Single-page write-back
   would let a crash persist an arbitrary subset of a logical update;
   batching keeps the on-disk file at a consistent flush boundary. *)
let flush_dirty t =
  lock_all t;
  let finish v =
    unlock_all t;
    v
  in
  let batch = ref [] in
  Array.iter
    (fun s -> Ode_util.Lru.iter s.frames (fun _ f -> if f.dirty then batch := (f.no, f.buf) :: !batch))
    t.stripes;
  match !batch with
  | [] -> finish false
  | batch -> (
      (* Write-ahead: deferred (group/async) commits apply to pages
         before their log records are fsynced, so the engine hooks this
         to force the WAL out before any dirty page can reach the disk. *)
      match
        t.pre_write ();
        Disk.write_batch t.disk batch
      with
      | () ->
          Array.iter
            (fun s -> Ode_util.Lru.iter s.frames (fun _ f -> f.dirty <- false))
            t.stripes;
          finish true
      | exception e ->
          unlock_all t;
          raise e)

(* A flush forced by a full stripe. Refused (false) while a no-flush
   section is open; the check runs under [flush_mu], which sections take
   to open, so a section never starts while a pressure flush is under way. *)
let pressure_flush t =
  Mutex.protect t.flush_mu (fun () ->
      Atomic.get t.no_flush = 0
      && begin
           (match Failpoint.hit fp_evict with
           | Some Failpoint.Crash_site -> Failpoint.crash fp_evict
           | Some _ | None -> ());
           Ode_util.Trace.instant ~cat:"pool" "pool.evict";
           ignore (flush_dirty t);
           true
         end)

let full s = Ode_util.Lru.length s.frames >= Ode_util.Lru.capacity s.frames

(* Evict an unpinned frame that [ok] accepts; its buffer, if one was. *)
let evict s ok =
  Option.map (fun (_, f) -> f.buf) (Ode_util.Lru.evict s.frames (fun _ f -> Atomic.get f.pins = 0 && ok f))

let evict_clean s = evict s (fun f -> not f.dirty)

(* Make room for one frame in stripe [s], caller holding its lock. A clean
   victim is evicted without I/O. Failing that, flush everything (one
   journalled batch) with the stripe lock dropped, retake it and evict —
   unless a no-flush section is open, in which case the stripe goes over
   capacity until the section ends. Returns the evicted frame's buffer:
   nothing reads a frame's bytes once it is unpinned, so the page that
   takes its place can be read into them. *)
let make_room t s =
  if not (full s) then None
  else
    match evict_clean s with
    | Some _ as buf -> buf
    | None when Atomic.get t.no_flush > 0 -> None
    | None ->
        Mutex.unlock s.mu;
        let flushed =
          match pressure_flush t with
          | v ->
              Mutex.lock s.mu;
              v
          | exception e ->
              Mutex.lock s.mu;
              raise e
        in
        if flushed && full s then
          match evict s (fun _ -> true) with Some _ as buf -> buf | None -> raise Pool_exhausted
        else None

(* Pin page [n], caller holding its stripe's lock. *)
let pin_locked t s n =
  match Ode_util.Lru.get s.frames n with
  | f ->
      Ode_util.Stats.incr c_pool_hits;
      Atomic.incr f.pins;
      f
  | exception Not_found -> (
      Ode_util.Stats.incr c_pool_misses;
      Ode_util.Trace.instant ~cat:"pool" "pool.miss";
      let spare = make_room t s in
      (* The stripe lock was dropped during a flush: another domain may
         have loaded the page meanwhile. *)
      match Ode_util.Lru.find s.frames n with
      | Some f ->
          Atomic.incr f.pins;
          f
      | None ->
          let buf =
            match spare with
            | Some buf ->
                Disk.read_into t.disk n buf;
                buf
            | None -> Disk.read t.disk n
          in
          let f = { no = n; buf; pins = Atomic.make 1; dirty = false } in
          Ode_util.Lru.add s.frames n f;
          f)

(* Pin takes the stripe lock without a closure, so a pool hit allocates
   nothing: B+tree lookups pin a frame per level. *)
let pin t n =
  let s = stripe_of t n in
  Mutex.lock s.mu;
  match pin_locked t s n with
  | f ->
      Mutex.unlock s.mu;
      f
  | exception e ->
      Mutex.unlock s.mu;
      raise e

(* Unpinning takes no lock: eviction reads the count under the stripe
   lock, where it can only have risen through [pin], so a frame seen
   unpinned there is unpinned. *)
let unpin _t f =
  let pins = Atomic.fetch_and_add f.pins (-1) in
  assert (pins > 0)

let with_page t n fn =
  let f = pin t n in
  Fun.protect ~finally:(fun () -> unpin t f) (fun () -> fn f)

let mark_dirty t f =
  let s = stripe_of t f.no in
  Mutex.protect s.mu (fun () -> f.dirty <- true)

(* The new frame takes the zero image of the page number [Disk.allocate]
   reserved, and starts dirty: the page reaches the file only when a flush
   writes it, in the same journalled batch as the pages that refer to it.
   A crash before then leaves the file as the last flush did, and replay
   allocates the same page number again. *)
let allocate t =
  let n, buf = Disk.allocate t.disk in
  let s = stripe_of t n in
  Mutex.protect s.mu (fun () ->
      ignore (make_room t s);
      let f = { no = n; buf; pins = Atomic.make 1; dirty = true } in
      Ode_util.Lru.add s.frames n f;
      f)

(* Bring every stripe back within capacity after the outermost no-flush
   section: clean victims first, then one flush if any stripe is still
   over. Frames still pinned may keep a stripe over until they are
   unpinned and evicted normally. *)
let trim t =
  let over s = Ode_util.Lru.length s.frames > Ode_util.Lru.capacity s.frames in
  let shed s =
    Mutex.protect s.mu (fun () ->
        while over s && evict_clean s <> None do
          ()
        done;
        over s)
  in
  let over = Array.fold_left (fun over s -> shed s || over) false t.stripes in
  if over && pressure_flush t then Array.iter (fun s -> ignore (shed s)) t.stripes

let with_no_flush t fn =
  Mutex.protect t.flush_mu (fun () -> Atomic.incr t.no_flush);
  match fn () with
  | v ->
      if Atomic.fetch_and_add t.no_flush (-1) = 1 then trim t;
      v
  | exception e ->
      (* The update stopped half-way: leave the overflow for the next
         section's trim rather than flush a half-applied state now. *)
      Atomic.decr t.no_flush;
      raise e

let flush_all t =
  (match Failpoint.hit fp_flush with
  | Some Failpoint.Crash_site -> Failpoint.crash fp_flush
  | Some _ | None -> ());
  if not (Mutex.protect t.flush_mu (fun () -> flush_dirty t)) then Disk.sync t.disk

let drop_cache t =
  Array.iter
    (fun s ->
      Mutex.protect s.mu (fun () ->
          while evict_clean s <> None do
            ()
          done))
    t.stripes

(* Forget every frame, dirty or not: for a pool whose disk is closed (a
   closed or crashed database), so a handle still held after it keeps no
   page buffer alive. A crash discards unflushed frames, as a process
   death would. *)
let release t =
  Array.iter (fun s -> Mutex.protect s.mu (fun () -> Ode_util.Lru.clear s.frames)) t.stripes
