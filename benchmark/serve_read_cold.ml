(* serve-read-cold: ode_server with two serving domains and group
   durability serves 40k kv rows (64-byte values, an index on k,
   analyzed): about 13 MB of files, beyond the 3x512-page (6 MiB) buffer
   pools and the 4,096-entry object cache. 85% of requests are point
   lookups on a uniform key, 15% are 20-key index ranges. Read-only: the
   wire, the reader domains, the B+tree and the buffer pool carry the load,
   and the WAL and the parser are small. *)

module Db = Ode.Database
module Prng = Ode_util.Prng
module Value = Ode_model.Value

let range = 20

(* The row the server renders for key [k]: its oid, then every field. *)
let row model k =
  let oid, v = model.(k) in
  Fmt.str "%a {k = %s, v = %s}" Ode_model.Oid.pp oid
    (Value.to_string (Int k))
    (Value.to_string (Str v))

(* Keys 0..n-1 in a seeded random order, so that neither the heap nor the
   directory holds them in key order and a range touches scattered pages. *)
let load (t : Ctx.t) ~db_dir ~n =
  let rng = Prng.create t.seed in
  let keys = Array.init n Fun.id in
  Prng.shuffle rng keys;
  let db = Db.open_ db_dir in
  ignore (Db.define db "class kv { k: int; v: string; };");
  Db.create_cluster db "kv";
  Db.create_index db ~cls:"kv" ~field:"k";
  let model = Array.make n (Ode_model.Oid.{ cls = 0; num = 0 }, "") in
  let user_bytes = ref 0 in
  let batch = 5000 in
  for b = 0 to (n - 1) / batch do
    Db.with_txn db (fun txn ->
        for j = b * batch to min n ((b + 1) * batch) - 1 do
          let k = keys.(j) and v = Prng.string rng 64 in
          let fields = [ ("k", Value.Int k); ("v", Value.Str v) ] in
          user_bytes := !user_bytes + String.length (Value.fields_encode fields);
          model.(k) <- (Db.pnew txn "kv" fields, v)
        done)
  done;
  ignore (Db.analyze db);
  Db.close db;
  (model, !user_bytes)

let run (t : Ctx.t) =
  let n = Ctx.scaled t ~floor:(4 * range) 40_000 in
  let db_dir = Filename.concat t.dir "db" in
  let setup () =
    let model, user_bytes = load t ~db_dir ~n in
    (model, user_bytes, Served.start t ~db_dir ~domains:2 ~kinds:[ "point"; "range" ])
  in
  let model, user_bytes, ((srv, conns) as served) =
    Ctx.repeat_setup t ~reps:3 setup ~discard:(fun (_, _, s) ->
        Served.shutdown t s;
        Host.rm_rf db_dir)
  in
  let op (c : Served.conn) ~measured =
    Ctx.attempt t;
    let point = Prng.int c.rng 100 < 85 in
    let k0 = Prng.int c.rng (if point then n else n - range) in
    let width = if point then 1 else range in
    let src =
      if point then Printf.sprintf "forall x in kv suchthat x.k == %d" k0
      else Printf.sprintf "forall x in kv suchthat x.k >= %d && x.k < %d" k0 (k0 + range)
    in
    let expect = List.init width (fun j -> row model (k0 + j)) in
    let expect = if Ctx.corrupt_once t then "corrupted" :: expect else expect in
    let kind = if point then "point" else "range" in
    match Served.call t c ~measured ~kind ~rows:[ width ] (Query src) with
    | `Rows got ->
        Ctx.check t
          (List.sort compare got = List.sort compare expect)
          "%s returned %d rows, the oracle expects %d" src (List.length got) (List.length expect)
    | `Output _ -> Ctx.fail t "%s: unexpected reply" src
    | exception e -> Ctx.fail t "%s raised %s" src (Printexc.to_string e)
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Served.kill srv)
      (fun () ->
        let r = Served.drive t srv conns ~per_s:3500. ~op in
        Served.window_metrics t srv conns r ~reads:[ "point"; "range" ] ~writes:[] ~commits:0;
        Served.shutdown t served;
        r)
  in
  Ctx.finish t ~dir:db_dir ~user_bytes;
  if t.traced then Served.replay t ~db_dir ~readers:true conns r
