(* serve-mixed: ode_server with one domain and group durability serves a
   bank: 10k accounts with a balance constraint, a perpetual trigger
   activated on each, and an index on number; accounts are chosen
   Zipf(0.99). 50% of requests are point reads, 30% autocommitted deposits
   through an indexed forall, 15% two-account transfers sent as one
   "begin; ...; commit;" request, 5% new accounts. Writes beside reads:
   group commit, Txn/Mvcc, object-cache invalidation and the active rules
   are on the path. *)

module Db = Ode.Database
module Prng = Ode_util.Prng
module Value = Ode_model.Value

let schema =
  {|
  class account {
    number: int; owner: string; balance: int;
    constraint nonneg: balance >= 0;
    trigger perpetual round() : balance % 100 == 0 ==> { print "round", number; };
  };
  |}

let owner i = Printf.sprintf "o%05d" i

(* Zipf(0.99) over [n] ranks, each rank mapped to an account by a seeded
   permutation so the hot accounts are scattered over the key space. *)
let zipf rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) 0.99);
    cdf.(r) <- !acc
  done;
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  let rec search u lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search u (mid + 1) hi else search u lo mid
  in
  fun rng -> perm.(search (Prng.float rng !acc) 0 (n - 1))

let load (t : Ctx.t) ~db_dir ~n =
  let rng = Prng.create t.seed in
  let db = Db.open_ db_dir in
  Db.set_action_printer db ignore;
  ignore (Db.define db schema);
  Db.create_cluster db "account";
  Db.create_index db ~cls:"account" ~field:"number";
  let balances = Array.init n (fun _ -> 1_000_000 + Prng.int rng 1000) in
  let batch = 2000 in
  for b = 0 to (n - 1) / batch do
    Db.with_txn db (fun txn ->
        for i = b * batch to min n ((b + 1) * batch) - 1 do
          let oid =
            Db.pnew txn "account"
              [ ("number", Int i); ("owner", Str (owner i)); ("balance", Int balances.(i)) ]
          in
          ignore (Db.activate txn oid "round" [])
        done)
  done;
  ignore (Db.analyze db);
  Db.close db;
  balances

(* Per connection: balance changes it had acknowledged, and the accounts
   it opened (number, balance). *)
type ledger = { delta : int array; mutable opened : (int * int) list }

let writes = [ "deposit"; "transfer"; "open" ]

let run (t : Ctx.t) =
  let n = Ctx.scaled t ~floor:10 10_000 in
  let db_dir = Filename.concat t.dir "db" in
  let setup () =
    let balances = load t ~db_dir ~n in
    (balances, Served.start t ~db_dir ~domains:1 ~kinds:("read" :: writes))
  in
  let balances, ((srv, conns) as served) =
    Ctx.repeat_setup t ~reps:5 setup ~discard:(fun (_, s) ->
        Served.shutdown t s;
        Host.rm_rf db_dir)
  in
  let pick = zipf (Prng.create (t.seed + 1)) n in
  let ledgers = Array.init (List.length conns) (fun _ -> { delta = Array.make n 0; opened = [] }) in
  let commits = Atomic.make 0 in
  let by_number a = Printf.sprintf "forall x in account suchthat x.number == %d" a in
  let op (c : Served.conn) ~measured =
    Ctx.attempt t;
    let l = ledgers.(c.id) in
    let r = Prng.int c.rng 100 in
    let write kind ~rows src ~ack =
      match Served.call t c ~measured ~kind ~rows (Exec src) with
      | `Output _ ->
          ack ();
          if measured then Atomic.incr commits
      | `Rows _ -> Ctx.fail t "%s: unexpected reply" src
      | exception e -> Ctx.fail t "%s raised %s" src (Printexc.to_string e)
    in
    if r < 50 then begin
      let a = pick c.rng in
      let a' = if Ctx.corrupt_once t then a + 1 else a in
      let src = by_number a in
      match Served.call t c ~measured ~kind:"read" ~rows:[ 1 ] (Query src) with
      | `Rows [ row ] ->
          let want =
            Printf.sprintf "{number = %d, owner = %s, " a' (Value.to_string (Str (owner a')))
          in
          Ctx.check t (Ctx.contains row want) "%s returned %s" src row
      | `Rows rows -> Ctx.fail t "%s returned %d rows, the oracle expects 1" src (List.length rows)
      | `Output _ -> Ctx.fail t "%s: unexpected reply" src
      | exception e -> Ctx.fail t "%s raised %s" src (Printexc.to_string e)
    end
    else if r < 80 then begin
      let a = pick c.rng and d = 1 + Prng.int c.rng 100 in
      write "deposit" ~rows:[ 1 ]
        (Printf.sprintf "%s { x.balance := x.balance + %d; }" (by_number a) d)
        ~ack:(fun () -> l.delta.(a) <- l.delta.(a) + d)
    end
    else if r < 95 then begin
      let a = pick c.rng in
      let rec other () = let b = pick c.rng in if b = a then other () else b in
      let b = other () and x = 1 + Prng.int c.rng 50 in
      write "transfer" ~rows:[ 1; 1 ]
        (Printf.sprintf
           "begin; %s { x.balance := x.balance - %d; } %s { x.balance := x.balance + %d; } commit;"
           (by_number a) x (by_number b) x)
        ~ack:(fun () ->
          l.delta.(a) <- l.delta.(a) - x;
          l.delta.(b) <- l.delta.(b) + x)
    end
    else begin
      let number = n + c.id + (List.length conns * List.length l.opened) in
      let bal = 1000 + Prng.int c.rng 1000 in
      write "open" ~rows:[]
        (Printf.sprintf "pnew account { number = %d, owner = %S, balance = %d };" number
           (owner number) bal)
        ~ack:(fun () -> l.opened <- (number, bal) :: l.opened)
    end
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Served.kill srv)
      (fun () ->
        let r = Served.drive t srv conns ~per_s:3000. ~op in
        Served.window_metrics t srv conns r ~reads:[ "read" ] ~writes ~commits:(Atomic.get commits);
        (* The oracle: every acknowledged deposit and opening is in the
           total, transfers moved money without creating any, and the row
           count is the initial one plus the openings. *)
        let moved i = Array.fold_left (fun acc l -> acc + l.delta.(i)) 0 ledgers in
        let final = Array.mapi (fun i b -> b + moved i) balances in
        let opened = Array.to_list ledgers |> List.concat_map (fun l -> l.opened) in
        let sum = List.fold_left ( + ) 0 in
        let total = sum (Array.to_list final) + sum (List.map snd opened) in
        let rows = n + List.length opened in
        let got =
          Ode_served.Client.exec (List.hd conns).client
            "t := 0; n := 0; forall x in account { t := t + x.balance; n := n + 1; } print t, n;"
        in
        let total = if Ctx.corrupt_once t then total + 1 else total in
        let want = Printf.sprintf "%d %d\n" total rows in
        Ctx.check t (got = want) "final balance total and row count %S, the oracle expects %S" got
          want;
        Served.shutdown t served;
        let bytes number bal =
          String.length
            (Value.fields_encode
               [ ("number", Int number); ("owner", Str (owner number)); ("balance", Int bal) ])
        in
        let user_bytes =
          Array.fold_left ( + ) 0 (Array.mapi bytes final)
          + List.fold_left (fun a (num, bal) -> a + bytes num bal) 0 opened
        in
        (r, user_bytes))
  in
  let r, user_bytes = r in
  Ctx.finish t ~dir:db_dir ~user_bytes;
  if t.traced then Served.replay t ~db_dir ~readers:false conns r
