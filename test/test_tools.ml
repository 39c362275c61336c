(* The integrity verifier, logical dump/load, the index-order by-clause
   optimization, and the root builtins. *)

module Db = Ode.Database
module Query = Ode.Query
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let int n = Value.Int n
let str s = Value.Str s

(* A database exercising every state kind. *)
let build_rich () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|
       class tag { label: string; };
       class note {
         title: string;
         weight: int;
         tags: set<ref tag>;
         link: ref note;
         trigger hot(n: int): weight > n ==> { print "hot"; };
       };
       |});
  Db.create_cluster db "tag";
  Db.create_cluster db "note";
  Db.create_index db ~cls:"note" ~field:"weight";
  Db.with_txn db (fun txn ->
      let t1 = Db.pnew txn "tag" [ ("label", str "work") ] in
      let t2 = Db.pnew txn "tag" [ ("label", str "home") ] in
      let n1 =
        Db.pnew txn "note"
          [ ("title", str "first"); ("weight", int 5); ("tags", Value.set_of_list [ Ref t1 ]) ]
      in
      let n2 =
        Db.pnew txn "note"
          [
            ("title", str "second");
            ("weight", int 9);
            ("tags", Value.set_of_list [ Ref t1; Ref t2 ]);
            ("link", Ref n1);
          ]
      in
      (* a version history *)
      ignore (Db.newversion txn n1);
      Db.set_field txn n1 "weight" (int 7);
      (* cyclic reference *)
      Db.set_field txn n1 "link" (Value.Ref n2);
      Db.set_root txn "inbox" (Value.Ref n2);
      ignore (Db.activate txn n1 "hot" [ int 100 ]));
  (* A longer history, committed version by version: weights 10..14 in
     versions 0..4, then a middle version and the current one deleted. *)
  let n3 =
    Db.with_txn db (fun txn -> Db.pnew txn "note" [ ("title", str "third"); ("weight", int 10) ])
  in
  for w = 11 to 14 do
    Db.with_txn db (fun txn ->
        ignore (Db.newversion txn n3);
        Db.set_field txn n3 "weight" (int w))
  done;
  Db.with_txn db (fun txn -> Db.pdelete_version txn { oid = n3; ver = 2 });
  Db.with_txn db (fun txn -> Db.pdelete_version txn { oid = n3; ver = 4 });
  db

(* -- verifier ---------------------------------------------------------- *)

let verify_clean () =
  let db = build_rich () in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "unexpected problems: %s" (String.concat "; " ps));
  Db.close db

let verify_after_crash () =
  let dir = Tutil.temp_dir "vfy" in
  let db = Db.open_ dir in
  ignore (Db.define db "class k { v: int; };");
  Db.create_cluster db "k";
  Db.create_index db ~cls:"k" ~field:"v";
  for i = 1 to 200 do
    Db.with_txn db (fun txn -> ignore (Db.pnew txn "k" [ ("v", int i) ]))
  done;
  let snap = Tutil.temp_dir "vfy2" in
  Sys.rmdir snap;
  Tutil.copy_dir dir snap;
  let db2 = Db.open_ snap in
  Tutil.verified db2;
  Db.close db2;
  Db.close db

(* Each case damages one object behind the store's back and expects a
   problem naming it. *)
let verify_detects_corruption () =
  let case ?(indexed = false) ?(also = []) name ~expect damage =
    let db = Db.open_in_memory () in
    ignore (Db.define db "class z { v: int; }; class y { w: int; r: ref z; };");
    Db.create_cluster db "z";
    Db.create_cluster db "y";
    if indexed then Db.create_index db ~cls:"z" ~field:"v";
    let o =
      Db.with_txn db (fun txn ->
          let o = Db.pnew txn "z" [ ("v", int 1) ] in
          ignore (Db.newversion txn o);
          Db.set_field txn o "v" (int 2);
          o)
    in
    damage db o;
    (match Ode.Verify.run db with
    | Ok () -> Alcotest.failf "%s: corruption not detected" name
    | Error ps ->
        List.iter
          (fun expect ->
            if not (List.exists (fun p -> Tutil.contains p expect) ps) then
              Alcotest.failf "%s: no problem mentions %S: %s" name expect (String.concat "; " ps))
          (expect :: also));
    Db.close db
  in
  let kv_apply db key op = Ode.Kv.apply_sorted db [| (key, op) |] ~skip:(0, 0) ~on_new:ignore ~on_gone:ignore in
  let put db key payload = kv_apply db key (Ode.Types.Put payload) in
  case "missing non-current version" ~expect:"version 0 record missing" (fun db o ->
      kv_apply db (Ode.Keys.version o 0) Ode.Types.Del);
  (* [o]'s record as the store writes it, with its header and the slots
     given. *)
  let record db o slots =
    Ode.Store.encode_object db o (Option.get (Ode.Store.get_header db None o)) slots
  in
  let put_object db o slots = put db (Ode.Keys.header o) (record db o slots) in
  (* A [y] object, whose record a case then rewrites. *)
  let new_y db = Db.with_txn db (fun txn -> Db.pnew txn "y" [ ("w", int 2) ]) in
  let version db o slots = Ode.Store.encode_version db o slots in
  case "current version stored twice" ~expect:"current version 1 also has a version record"
    (fun db o -> put db (Ode.Keys.version o 1) (version db o [| int 2 |]));
  case "malformed version key" ~expect:"malformed version key" (fun db o ->
      put db (Ode.Keys.version o 0 ^ "x") (version db o [| int 1 |]));
  (* Records carry no names and no value tags, so only the class's layout
     vouches for them; [v = 2] is the one-byte zigzag varint 4. *)
  case "object record one slot short" ~expect:"does not decode as header plus fields" (fun db o ->
      let r = record db o [| int 2 |] in
      put db (Ode.Keys.header o) (String.sub r 0 (String.length r - 1)));
  case "object record one slot extra" ~expect:"does not decode as header plus fields" (fun db o ->
      put db (Ode.Keys.header o) (record db o [| int 2 |] ^ "\004"));
  case "object record in the old tagged layout" ~expect:"does not decode as header plus fields"
    (fun db o ->
      let b = Buffer.create 16 in
      List.iter (Ode_util.Codec.put_varint b) [ 1; 2; 1; 0 ];
      Value.encode b (int 2);
      put db (Ode.Keys.header o) (Buffer.contents b));
  case "version record one slot short" ~expect:"version 0 record does not decode" (fun db o ->
      put db (Ode.Keys.version o 0) "");
  case "version record one slot extra" ~expect:"version 0 record does not decode" (fun db o ->
      put db (Ode.Keys.version o 0) "\002\002");
  case "version record in the old tagged layout" ~expect:"version 0 record does not decode"
    (fun db o ->
      let b = Buffer.create 16 in
      Value.encode b (int 1);
      put db (Ode.Keys.version o 0) (Buffer.contents b));
  (* [v = 300] is the two-byte varint d8 04. *)
  case "truncated varint" ~expect:"does not decode as header plus fields" (fun db o ->
      let r = record db o [| int 300 |] in
      put db (Ode.Keys.header o) (String.sub r 0 (String.length r - 1)));
  case "overlong varint" ~expect:"does not decode as header plus fields" (fun db o ->
      let r = record db o [| int 2 |] in
      put db (Ode.Keys.header o) (String.sub r 0 (String.length r - 1) ^ "\x84\x00"));
  (* [y]'s last slot is [r: ref z], whose first byte is its discriminator:
     0 null, 1 ref, 2 vref. *)
  case "ref discriminator out of range" ~expect:"does not decode as header plus fields" (fun db _ ->
      let p = new_y db in
      let r = record db p [| int 2; Value.Null |] in
      put db (Ode.Keys.header p) (String.sub r 0 (String.length r - 1) ^ "\003"));
  case "ref outside the declared class" ~expect:"field r holds #1:0, which does not conform to ref z"
    (fun db _ ->
      let p = new_y db in
      put_object db p [| int 2; Value.Ref p |]);
  (* A record in the wrong home, a value of unknown kind, a heap record no
     entry reaches. *)
  let dir_put db key value = Ode_index.Bptree.insert db.Ode.Types.kv_dir key value in
  let heap_put db key payload =
    Ode_storage.Heap.insert db.Ode.Types.kv_heap (Ode.Kv.encode_record key payload)
  in
  let stray = "\xffstray" and limit = Ode.Kv.inline_max in
  case "payload above the limit in its leaf" ~expect:"129-byte payload in its leaf, which belongs in the heap" (fun db _ ->
      dir_put db stray (Ode.Kv.encode_entry (Ode.Kv.Inline (String.make (limit + 1) 'x'))));
  case "payload at the limit in the heap" ~expect:"keeps a 128-byte payload in the heap" (fun db _ ->
      dir_put db stray (Ode.Kv.encode_entry (Ode.Kv.At (heap_put db stray (String.make limit 'x')))));
  case "unknown directory value tag" ~expect:"unknown directory value tag 7" (fun db _ ->
      dir_put db stray "\007abc");
  case "heap record without an entry" ~expect:"but the directory has" (fun db _ ->
      ignore (heap_put db stray (String.make (limit + 1) 'x')));
  (* Version lists and version records. *)
  let dead (o : Ode_model.Oid.t) = { o with num = 99 } in
  case "orphan version record" ~expect:"orphan version record 5" (fun db o ->
      put db (Ode.Keys.version o 5) (version db o [| int 1 |]));
  case "version record of a dead object" ~expect:"version record for dead object" (fun db o ->
      put db (Ode.Keys.version (dead o) 0) (version db o [| int 1 |]));
  (* The same number of version records, one under another number: only
     the keys tell them apart. *)
  case "version record renumbered" ~expect:"version 0 record missing"
    ~also:[ "orphan version record 5" ] (fun db o ->
      Ode.Kv.apply_sorted db
        [|
          (Ode.Keys.version o 0, Ode.Types.Del);
          (Ode.Keys.version o 5, Ode.Types.Put (version db o [| int 1 |]));
        |]
        ~skip:(0, 0) ~on_new:ignore ~on_gone:ignore);
  let put_header db o h = put db (Ode.Keys.header o) (Ode.Store.encode_object db o h [| int 2 |]) in
  case "current version not listed" ~expect:"current version 7 not in version list" (fun db o ->
      put_header db o { hcurrent = 7; hversions = [ 1; 0 ] });
  case "duplicate version numbers" ~expect:"duplicate version numbers" (fun db o ->
      put_header db o { hcurrent = 1; hversions = [ 1; 0; 0 ] });
  (* Index entries, written to the index tree behind the store's back;
     index 0 covers z.v, and the object's current v is 2. *)
  let entry ?(idx_id = 0) v o =
    Ode.Keys.index_tree_key (Ode.Keys.index_entry ~idx_id ~valkey:(Value.index_key v) ~oid:o)
  in
  let idx_put db key = Ode_index.Bptree.insert db.Ode.Types.idx key "" in
  let idx_del db key = Ode_index.Bptree.apply_sorted db.Ode.Types.idx [| (key, None) |] in
  case ~indexed:true "stale index entry" ~expect:"index 0: stale entry for" (fun db o ->
      idx_put db (entry (int 5) o));
  case ~indexed:true "missing index entry" ~expect:"index 0: missing entry for" (fun db o ->
      idx_del db (entry (int 2) o));
  case ~indexed:true "index entry replaced under the same count" ~expect:"index 0: stale entry for"
    ~also:[ "index 0: missing entry for" ] (fun db o ->
      idx_del db (entry (int 2) o);
      idx_put db (entry (int 5) o));
  case ~indexed:true "index entry for a dead object" ~expect:"index 0: entry for dead object"
    (fun db o -> idx_put db (entry (int 2) (dead o)));
  case ~indexed:true "index entry under an unknown index" ~expect:"entry for unknown index id 7"
    (fun db o -> idx_put db (entry ~idx_id:7 (int 2) o));
  case ~indexed:true "malformed index key" ~expect:"malformed index key" (fun db o ->
      idx_put db (entry (int 2) o ^ "x"));
  case ~indexed:true "index entry for an object lacking the field" ~expect:"lacks field v"
    (fun db _ ->
      let w = Db.with_txn db (fun txn -> Db.pnew txn "y" [ ("w", int 2) ]) in
      idx_put db (entry (int 2) w))

(* The check reads each page once: on a 2,000-object indexed store, half
   its records in the heap, it fetches no object through [Store], and its
   pins are one for each node of the directory and index trees, read by
   their structural check's walk, and one for each heap record. The index
   is created over the loaded extent, whose backfill decodes the records
   its scan hands it, also without [Store]; the check then vouches for its
   entries. *)
let verify_reads_once () =
  let module Stats = Ode_util.Stats in
  let no_object_reads what d =
    Alcotest.(check int) (what ^ ": objects_fetched") 0 (Stats.get d "objects_fetched")
  in
  let db = Db.open_in_memory () in
  ignore (Db.define db "class k { v: int; pad: string; };");
  Db.create_cluster db "k";
  for batch = 0 to 3 do
    Db.with_txn db (fun txn ->
        for i = 0 to 499 do
          let pad = String.make (if i mod 2 = 0 then 8 else 200) 'x' in
          ignore (Db.pnew txn "k" [ ("v", int ((batch * 500) + i)); ("pad", str pad) ])
        done)
  done;
  let s0 = Stats.snapshot () in
  Db.create_index db ~cls:"k" ~field:"v";
  no_object_reads "backfill" (Stats.diff (Stats.snapshot ()) s0);
  (* Pages are never freed, so every page but a tree's header is a node. *)
  let nodes tree = Ode_index.Bptree.page_count tree - 1 in
  let heap_records = Ode_storage.Heap.record_count db.kv_heap in
  Tutil.check_bool "records in the heap" true (heap_records >= 1000);
  let s0 = Stats.snapshot () in
  Tutil.verified db;
  let d = Stats.diff (Stats.snapshot ()) s0 in
  no_object_reads "verify" d;
  Alcotest.(check int)
    "pins: each tree node once, each heap record once"
    (nodes db.kv_dir + nodes db.idx + heap_records)
    (Stats.get d "pool_hits" + Stats.get d "pool_misses");
  Db.close db

(* The check holds a live bit per object and a few sums, not a table
   entry per object: on a 20,000-object store of two classes, one index,
   versions on a tenth of the objects and activations on some, it
   promotes under one word per object. *)
let verify_memory_bounded () =
  let n = 20_000 in
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       "class a { v: int; s: string; trigger big(n: int): v > n ==> { print v; }; };\n\
        class b { w: int; };");
  Db.create_cluster db "a";
  Db.create_cluster db "b";
  Db.create_index db ~cls:"a" ~field:"v";
  for batch = 0 to (n / 1000) - 1 do
    Db.with_txn db (fun txn ->
        for j = 0 to 999 do
          let i = (batch * 1000) + j in
          if i mod 2 = 0 then begin
            let o = Db.pnew txn "a" [ ("v", int i); ("s", str (String.make (i mod 300) 's')) ] in
            if i mod 10 = 0 then begin
              ignore (Db.newversion txn o);
              Db.set_field txn o "v" (int (i + 1))
            end;
            if i mod 100 = 0 then ignore (Db.activate txn o "big" [ int n ])
          end
          else ignore (Db.pnew txn "b" [ ("w", int i) ])
        done)
  done;
  Gc.minor ();
  let _, promoted0, _ = Gc.counters () in
  Tutil.verified db;
  Gc.minor ();
  let _, promoted1, _ = Gc.counters () in
  let words = promoted1 -. promoted0 in
  if words >= float n then Alcotest.failf "verify of %d objects promoted %.0f words" n words;
  Db.close db

(* An activation record is checked against the catalog: its declaring
   class id must exist, its position must name one of that class's own
   triggers, nothing may follow its last field, and the object its key
   names must be live, active record or not, and of a class that inherits
   the trigger. Each case damages
   the record it reads back from the store. *)
let verify_detects_bad_activations () =
  let case name ~expect damage =
    let db = Db.open_in_memory () in
    ignore
      (Db.define db
         "class z { v: int; trigger low(n: int): v < n ==> { v := n; }; }; class y { w: int; };");
    Db.create_cluster db "z";
    Db.create_cluster db "y";
    let key, other =
      Db.with_txn db (fun txn ->
          let o = Db.pnew txn "z" [ ("v", int 1) ] in
          (Ode.Keys.trigger o (Db.activate txn o "low" [ int 0 ]), Db.pnew txn "y" []))
    in
    let a = Ode.Triggers.decode_activation db key (Option.get (Ode.Kv.get db key)) in
    let key', payload = damage key a other in
    let ops = if key' = key then [] else [ (key, Ode.Types.Del) ] in
    Ode.Kv.apply_sorted db
      (Array.of_list (List.sort compare ((key', Ode.Types.Put payload) :: ops)))
      ~skip:(0, 0) ~on_new:ignore ~on_gone:ignore;
    (match Ode.Verify.run db with
    | Ok () -> Alcotest.failf "%s: corruption not detected" name
    | Error ps ->
        if not (List.exists (fun p -> Tutil.contains p expect) ps) then
          Alcotest.failf "%s: no problem mentions %S: %s" name expect (String.concat "; " ps));
    Db.close db
  in
  (* [low]'s one parameter is an int. *)
  let enc = Ode.Triggers.encode_activation [ Ode_model.Otype.TInt ] in
  case "unknown declaring class" ~expect:"unknown class id 9" (fun key a _ -> (key, enc { a with tdecl = 9 }));
  case "position past the class's triggers" ~expect:"class z has no trigger at position 1"
    (fun key a _ -> (key, enc { a with tpos = 1 }));
  case "trailing byte" ~expect:"1 trailing bytes" (fun key a _ -> (key, enc a ^ "\000"));
  case "attached to an object of an unrelated class" ~expect:"class y does not inherit trigger z.low"
    (fun _ a other -> (Ode.Keys.trigger other a.tid, enc a));
  case "inactive, on a dead object" ~expect:"attached to dead object"
    (fun _ a _ -> (Ode.Keys.trigger { a.aoid with num = a.aoid.num + 100 } a.tid, enc { a with active = false }))

(* -- dump/load ----------------------------------------------------------- *)

let dump_roundtrip () =
  let db = build_rich () in
  let script = Ode.Dump.export db in
  let db2 = Db.open_in_memory () in
  Ode.Dump.import db2 script;
  Tutil.verified db2;
  (* Same extents. *)
  let count d cls = Db.with_txn d (fun _ -> Query.count d ~var:"x" ~cls ()) in
  Tutil.check_int "tags" (count db "tag") (count db2 "tag");
  Tutil.check_int "notes" (count db "note") (count db2 "note");
  (* Same data (modulo oids and version numbers): compare titles, current
     weights and every version's weight in version order. *)
  let snapshot d =
    Db.with_txn d (fun txn ->
        List.sort compare
          (List.map
             (fun oid ->
               ( Value.to_string (Db.get_field txn oid "title"),
                 Value.to_string (Db.get_field txn oid "weight"),
                 (match Db.get_field txn oid "tags" with Value.VSet l -> List.length l | _ -> -1),
                 List.map
                   (fun ver ->
                     Value.to_string
                       (List.assoc "weight" (Option.get (Db.get_version txn { oid; ver }))))
                   (Db.versions txn oid) ))
             (Query.to_list d ~var:"x" ~cls:"note" ())))
  in
  Tutil.check_bool "history kept" true
    (List.exists (fun (_, w, _, ws) -> w = "13" && ws = [ "10"; "11"; "13" ]) (snapshot db));
  Tutil.check_bool "note contents match" true (snapshot db = snapshot db2);
  (* Root present and pointing at the right object. *)
  Db.with_txn db2 (fun txn ->
      match Db.root_exn txn "inbox" with
      | Value.Ref o -> Tutil.check_value "root title" (str "second") (Db.get_field txn o "title")
      | v -> Alcotest.failf "bad root %s" (Value.to_string v));
  (* Activations were re-armed: firing still works. *)
  let log = Buffer.create 16 in
  Db.set_action_printer db2 (Buffer.add_string log);
  Db.with_txn db2 (fun txn ->
      Query.run db2 ~txn ~var:"x" ~cls:"note"
        ~suchthat:(Parser.expr "x.title == \"first\"")
        (fun o -> Db.set_field txn o "weight" (int 1000)));
  Tutil.check_string "trigger survived dump" "hot\n" (Buffer.contents log);
  Db.close db;
  Db.close db2

let dump_version_history () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class d { v: int; };");
  Db.create_cluster db "d";
  let o = Db.with_txn db (fun txn -> Db.pnew txn "d" [ ("v", int 0) ]) in
  Db.with_txn db (fun txn ->
      for i = 1 to 3 do
        ignore (Db.newversion txn o);
        Db.set_field txn o "v" (int i)
      done);
  let db2 = Db.open_in_memory () in
  Ode.Dump.import db2 (Ode.Dump.export db);
  Db.with_txn db2 (fun txn ->
      let o2 = List.hd (Query.to_list db2 ~var:"x" ~cls:"d" ()) in
      Tutil.check_int "versions replayed" 4 (List.length (Db.versions txn o2));
      Tutil.check_value "current" (int 3) (Db.get_field txn o2 "v");
      Tutil.check_value "v1 state" (int 1)
        (List.assoc "v" (Option.get (Db.get_version txn { oid = o2; ver = 1 }))));
  Db.close db;
  Db.close db2

(* A reference to a deleted object has no variable in the dump (and oids
   are reassigned on import), so it is written as [null] with a note, and
   the dump reloads. *)
let dump_dangling_refs () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class t { v: int; }; class h { r: ref t; rs: set<ref t>; };");
  Db.create_cluster db "t";
  Db.create_cluster db "h";
  Db.with_txn db (fun txn ->
      let gone = Db.pnew txn "t" [ ("v", int 1) ] and kept = Db.pnew txn "t" [ ("v", int 2) ] in
      ignore
        (Db.pnew txn "h"
           [ ("r", Value.Ref gone); ("rs", Value.set_of_list [ Value.Ref gone; Value.Ref kept ]) ]);
      Db.set_root txn "gone" (Value.Ref gone);
      Db.pdelete txn gone);
  let script = Ode.Dump.export db in
  Tutil.check_bool "dangling reference noted" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"// note: " l && Tutil.contains l "deleted")
       (String.split_on_char '\n' script));
  let db2 = Db.open_in_memory () in
  Ode.Dump.import db2 script;
  Tutil.verified db2;
  Db.with_txn db2 (fun txn ->
      Tutil.check_int "one t survives" 1 (List.length (Query.to_list db2 ~var:"x" ~cls:"t" ()));
      let h = List.hd (Query.to_list db2 ~var:"x" ~cls:"h" ()) in
      Tutil.check_value "dangling ref reloads as null" Value.Null (Db.get_field txn h "r");
      (match Db.get_field txn h "rs" with
      | Value.VSet vs ->
          Tutil.check_int "live member kept" 1
            (List.length (List.filter (function Value.Ref _ -> true | _ -> false) vs))
      | v -> Alcotest.failf "rs reloaded as %s" (Value.to_string v));
      Tutil.check_value "dangling root reloads as null" Value.Null (Db.root_exn txn "gone"));
  Db.close db;
  Db.close db2

(* -- index-order by ------------------------------------------------------- *)

let by_index_order_matches_sort () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class s { k: int; };");
  Db.create_cluster db "s";
  let rng = Ode_util.Prng.create 4 in
  Db.with_txn db (fun txn ->
      for _ = 1 to 500 do
        ignore (Db.pnew txn "s" [ ("k", int (Ode_util.Prng.int rng 100)) ])
      done);
  let by order = (Parser.expr "x.k", order) in
  let keys d order =
    Db.with_txn d (fun txn ->
        List.map
          (fun o -> Db.get_field txn o "k")
          (Query.to_list d ~var:"x" ~cls:"s" ~by:(by order) ()))
  in
  let before_asc = keys db Ode_lang.Ast.Asc in
  let before_desc = keys db Ode_lang.Ast.Desc in
  Db.create_index db ~cls:"s" ~field:"k";
  let after_asc = keys db Ode_lang.Ast.Asc in
  let after_desc = keys db Ode_lang.Ast.Desc in
  Tutil.check_values "asc agrees" before_asc after_asc;
  Tutil.check_values "desc agrees" before_desc after_desc;
  (* With a dirty transaction the engine must fall back to sorting (and see
     the txn's writes). *)
  Db.with_txn db (fun txn ->
      ignore (Db.pnew txn "s" [ ("k", int (-5)) ]);
      let ks =
        List.map (fun o -> Db.get_field txn o "k") (Query.to_list db ~txn ~var:"x" ~cls:"s" ~by:(by Ode_lang.Ast.Asc) ())
      in
      Tutil.check_value "txn-created first" (int (-5)) (List.hd ks);
      Tutil.check_int "all rows" 501 (List.length ks));
  Db.close db

let by_with_suchthat_and_index_order () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class t2 { k: int; grp: int; };");
  Db.create_cluster db "t2";
  Db.with_txn db (fun txn ->
      for i = 1 to 100 do
        ignore (Db.pnew txn "t2" [ ("k", int (101 - i)); ("grp", int (i mod 3)) ])
      done);
  Db.create_index db ~cls:"t2" ~field:"k";
  let got =
    Db.with_txn db (fun txn ->
        List.map
          (fun o -> match Db.get_field txn o "k" with Value.Int k -> k | _ -> -1)
          (Query.to_list db ~var:"x" ~cls:"t2" ~suchthat:(Parser.expr "x.grp == 0")
             ~by:(Parser.expr "x.k", Ode_lang.Ast.Asc) ()))
  in
  let rec sorted = function a :: (b :: _ as r) -> a <= b && sorted r | _ -> true in
  Tutil.check_bool "filtered and sorted" true (sorted got && List.length got = 33);
  Db.close db

(* -- root builtins ----------------------------------------------------------- *)

let root_builtins () =
  let db = Db.open_in_memory () in
  let out = Buffer.create 32 in
  let shell = Ode.Shell.create ~print:(Buffer.add_string out) db in
  Ode.Shell.exec shell
    {|
    class c3 { v: int; };
    create cluster c3;
    x := pnew c3 { v = 42 };
    setroot("main", x);
    y := getroot("main");
    print y.v, getroot("missing");
    |};
  Tutil.check_string "root round-trip" "42 null\n" (Buffer.contents out);
  Db.close db

let suite =
  [
    ( "verify",
      [
        Alcotest.test_case "clean database passes" `Quick verify_clean;
        Alcotest.test_case "recovered database passes" `Quick verify_after_crash;
        Alcotest.test_case "corruption is detected" `Quick verify_detects_corruption;
        Alcotest.test_case "bad activations are detected" `Quick verify_detects_bad_activations;
        Alcotest.test_case "each record read once" `Quick verify_reads_once;
        Alcotest.test_case "memory is a bit an object" `Quick verify_memory_bounded;
      ] );
    ( "dump",
      [
        Alcotest.test_case "export/import round-trip" `Quick dump_roundtrip;
        Alcotest.test_case "version history replayed" `Quick dump_version_history;
        Alcotest.test_case "references to deleted objects" `Quick dump_dangling_refs;
      ] );
    ( "query.by_index",
      [
        Alcotest.test_case "index order matches sort" `Quick by_index_order_matches_sort;
        Alcotest.test_case "with suchthat" `Quick by_with_suchthat_and_index_order;
      ] );
    ("roots", [ Alcotest.test_case "setroot/getroot builtins" `Quick root_builtins ]);
  ]
