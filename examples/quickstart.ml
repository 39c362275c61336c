(* Quickstart: define a schema, store persistent objects, query them back.

   Run with:  dune exec examples/quickstart.exe
   (uses an on-disk database under ./quickstart.db so you can re-run it and
   see persistence across runs) *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let () =
  let fresh = not (Sys.file_exists "quickstart.db") in
  let db = Db.open_ "quickstart.db" in

  (* 1. Schema: classes are the unit of data definition (O++ §2). DDL is
     idempotent per database, so only define on first run. *)
  if fresh then begin
    ignore
      (Db.define db
         {|
         class city { cname: string; country: string; };
         class site {
           sname: string;
           visitors: int;
           host: ref city;
           method popular(): bool = visitors > 1000;
         };
         |});
    Db.create_cluster db "city";
    Db.create_cluster db "site";
    Db.create_index db ~cls:"site" ~field:"visitors"
  end;

  (* 2. Persistent objects: pnew allocates in the persistent store and
     returns an object id; everything happens inside a transaction. *)
  Db.with_txn db (fun txn ->
      let nj = Db.pnew txn "city" [ ("cname", Str "Murray Hill"); ("country", Str "USA") ] in
      ignore
        (Db.pnew txn "site"
           [ ("sname", Str "Bell Labs"); ("visitors", Int 5000); ("host", Ref nj) ]);
      ignore
        (Db.pnew txn "site" [ ("sname", Str "Cafeteria"); ("visitors", Int 120); ("host", Ref nj) ]));

  (* 3. Queries: forall-style iteration with a suchthat predicate; the
     planner uses the index on visitors automatically. *)
  Db.with_txn db (fun txn ->
      let q = Parser.expr "x.visitors > 1000" in
      Printf.printf "plan: %s\n" (Query.explain db ~var:"x" ~cls:"site" ~suchthat:q ());
      Query.run db ~txn ~var:"x" ~cls:"site" ~suchthat:q (fun oid ->
          let name = Db.get_field txn oid "sname" in
          let host = Db.get_field txn oid "host" in
          let country =
            match host with
            | Value.Ref c -> Db.get_field txn c "country"
            | _ -> Value.Null
          in
          Printf.printf "popular site: %s (%s), popular()=%s\n" (Value.to_string name)
            (Value.to_string country)
            (Value.to_string (Db.call txn oid "popular" []))));

  (* 4. The same through the interpreted surface language. *)
  let shell = Ode.Shell.create db in
  Ode.Shell.exec shell
    {| forall s in site by s.visitors desc { print s.sname, s.visitors; }; |};

  let total = Db.with_txn db (fun txn -> Query.count db ~txn ~var:"s" ~cls:"site" ()) in
  Printf.printf "sites stored so far (grows on every run): %d\n" total;
  Db.close db
