(* Page cache: one LRU of frames per pool. A database is used from one
   domain, so the pool takes no lock. Write-back is one crash-atomic batch:
   a flush writes every dirty frame at once, so the file only ever holds
   the pages of a flush boundary.

   A no-flush section ([with_no_flush]) brackets a multi-page update that
   is only consistent once complete, such as a B+tree split. While one is
   open, eviction takes clean victims only and a full pool with none goes
   over capacity instead of flushing; the outermost section trims the pool
   back on exit, flushing then if it must. So a pressure flush never writes
   back a half-applied update. *)

module Failpoint = Ode_util.Failpoint
module Lru = Ode_util.Lru

type frame = { no : int; buf : Page.t; mutable pins : int; mutable dirty : bool }

let fp_flush = Failpoint.site "pool.flush"
let fp_evict = Failpoint.site "pool.evict"

let c_pool_hits = Ode_util.Stats.counter "pool_hits"
let c_pool_misses = Ode_util.Stats.counter "pool_misses"

type t = {
  disk : Disk.t;
  frames : (int, frame) Lru.t;
  mutable no_flush : int; (* open no-flush sections *)
  mutable pre_write : unit -> unit;
  mutable released : bool; (* its database is closed: no page is read again *)
}

exception Pool_exhausted

let data f = f.buf
let page_no f = f.no

let create ?(capacity = 256) disk =
  {
    disk;
    frames = Lru.create (max 1 capacity);
    no_flush = 0;
    pre_write = (fun () -> ());
    released = false;
  }

let set_pre_write t f = t.pre_write <- f
let disk t = t.disk
let capacity t = Lru.capacity t.frames
let resident t = Lru.length t.frames
let page_count t = Disk.page_count t.disk

(* Persist every dirty frame as one crash-atomic batch (double-write
   journalled and fsynced by the disk layer). Returns false when there was
   nothing to write. Single-page write-back would let a crash persist an
   arbitrary subset of a logical update; batching keeps the on-disk file at
   a consistent flush boundary. *)
let flush_dirty t =
  let batch = ref [] in
  Lru.iter t.frames (fun _ f -> if f.dirty then batch := (f.no, f.buf) :: !batch);
  match !batch with
  | [] -> false
  | batch ->
      (* Write-ahead: deferred (group/async) commits apply to pages
         before their log records are fsynced, so the engine hooks this
         to force the WAL out before any dirty page can reach the disk. *)
      t.pre_write ();
      Disk.write_batch t.disk batch;
      Lru.iter t.frames (fun _ f -> f.dirty <- false);
      true

(* A flush forced by a full pool; refused (false) while a no-flush section
   is open. *)
let pressure_flush t =
  t.no_flush = 0
  && begin
       (match Failpoint.hit fp_evict with
       | Some Failpoint.Crash_site -> Failpoint.crash fp_evict
       | Some _ | None -> ());
       Ode_util.Trace.instant ~cat:"pool" "pool.evict";
       ignore (flush_dirty t);
       true
     end

let full t = Lru.length t.frames >= Lru.capacity t.frames

(* Evict an unpinned frame that [ok] accepts; its buffer, if one was. *)
let evict t ok = Option.map (fun (_, f) -> f.buf) (Lru.evict t.frames (fun _ f -> f.pins = 0 && ok f))
let evict_clean t = evict t (fun f -> not f.dirty)

(* Make room for one frame. A clean victim is evicted without I/O. Failing
   that, flush everything (one journalled batch) and evict — unless a
   no-flush section is open, in which case the pool goes over capacity
   until the section ends. Returns the evicted frame's buffer: nothing
   reads a frame's bytes once it is unpinned, so the page that takes its
   place can be read into them. *)
let make_room t =
  if not (full t) then None
  else
    match evict_clean t with
    | Some _ as buf -> buf
    | None ->
        if pressure_flush t then
          match evict t (fun _ -> true) with Some _ as buf -> buf | None -> raise Pool_exhausted
        else None

(* A released pool holds no frame, so every pin of it comes here. *)
let check_open t = if t.released then Ode_util.Ode_error.fail Resource "database is closed"

(* A hit allocates nothing: B+tree lookups pin a frame per level. *)
let pin t n =
  match Lru.get t.frames n with
  | f ->
      Ode_util.Stats.incr c_pool_hits;
      f.pins <- f.pins + 1;
      f
  | exception Not_found ->
      check_open t;
      Ode_util.Stats.incr c_pool_misses;
      Ode_util.Trace.instant ~cat:"pool" "pool.miss";
      let buf =
        match make_room t with
        | Some buf ->
            Disk.read_into t.disk n buf;
            buf
        | None -> Disk.read t.disk n
      in
      let f = { no = n; buf; pins = 1; dirty = false } in
      Lru.add t.frames n f;
      f

let unpin _t f =
  assert (f.pins > 0);
  f.pins <- f.pins - 1

let with_page t n fn =
  let f = pin t n in
  Fun.protect ~finally:(fun () -> unpin t f) (fun () -> fn f)

let mark_dirty _t f = f.dirty <- true

(* The new frame takes the zero image of the page number [Disk.allocate]
   reserved, and starts dirty: the page reaches the file only when a flush
   writes it, in the same journalled batch as the pages that refer to it.
   A crash before then leaves the file as the last flush did, and replay
   allocates the same page number again. *)
let allocate t =
  check_open t;
  let n, buf = Disk.allocate t.disk in
  ignore (make_room t);
  let f = { no = n; buf; pins = 1; dirty = true } in
  Lru.add t.frames n f;
  f

(* Bring the pool back within capacity after the outermost no-flush
   section: clean victims first, then one flush if it is still over.
   Frames still pinned may keep it over until they are unpinned and
   evicted normally. *)
let trim t =
  let over () = Lru.length t.frames > Lru.capacity t.frames in
  let shed () =
    while over () && evict_clean t <> None do
      ()
    done
  in
  shed ();
  if over () && pressure_flush t then shed ()

let with_no_flush t fn =
  t.no_flush <- t.no_flush + 1;
  match fn () with
  | v ->
      t.no_flush <- t.no_flush - 1;
      if t.no_flush = 0 then trim t;
      v
  | exception e ->
      (* The update stopped half-way: leave the overflow for the next
         section's trim rather than flush a half-applied state now. *)
      t.no_flush <- t.no_flush - 1;
      raise e

let flush_all t =
  (match Failpoint.hit fp_flush with
  | Some Failpoint.Crash_site -> Failpoint.crash fp_flush
  | Some _ | None -> ());
  if not (flush_dirty t) then Disk.sync t.disk

let drop_cache t =
  while evict_clean t <> None do
    ()
  done

(* Forget every frame, dirty or not: for a pool whose disk is closed (a
   closed or crashed database). A crash discards unflushed frames, as a
   process death would. Each unpinned frame's page is freed now, not when
   the GC gets to it, which is what [make_room] relies on too: nothing
   reads an unpinned frame's bytes. A frame still pinned is in a caller's
   hands and is left to the GC. *)
let release t =
  t.released <- true;
  Lru.iter t.frames (fun _ f -> if f.pins = 0 then Bigbytes.release f.buf);
  Lru.clear t.frames
