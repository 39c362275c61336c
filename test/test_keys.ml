(* The store's key layout: every [Keys] parser inverts its constructor, a
   class prefix covers exactly its class, header keys sort in cluster
   order, the compact widths are gated exactly, and a store written in
   the older 16-byte oid layout is refused at open. *)

module Db = Ode.Database
module Keys = Ode.Keys
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Gen = QCheck.Gen

(* Naturals across every width: mostly small, as the engine allocates
   them, and sometimes up to max_int. *)
let nat_gen =
  Gen.(
    frequency
      [
        (3, int_bound 300);
        (2, int_bound 70_000);
        (1, map2 (fun w n -> n lsr w) (int_bound 62) (int_bound max_int));
      ])

let oid_gen = Gen.map2 (fun cls num -> { Oid.cls; num }) nat_gen nat_gen
let pp_oid = Fmt.to_to_string Oid.pp

(* One value of every kind [Value.index_key] accepts; strings are drawn
   from bytes that exercise [Key.of_string]'s escape. *)
let value_gen =
  Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun n -> Value.Int n) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size ~gen:(oneofl [ '\000'; '\001'; '\255'; 'a' ]) (0 -- 6));
        map (fun o -> Value.Ref o) oid_gen;
      ])

let pp_value = Fmt.to_to_string Value.pp

let prop_header =
  QCheck.Test.make ~name:"header keys round-trip" ~count:500 (QCheck.make ~print:pp_oid oid_gen)
    (fun o -> Oid.equal (Keys.oid_of_header_key (Keys.header o)) o)

let prop_version =
  QCheck.Test.make ~name:"version keys round-trip" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair pp_oid int) (Gen.pair oid_gen nat_gen))
    (fun (o, ver) ->
      let o', ver' = Keys.parse_version (Keys.version o ver) in
      Oid.equal o o' && ver = ver')

let prop_trigger =
  QCheck.Test.make ~name:"trigger keys round-trip" ~count:500 (QCheck.make ~print:string_of_int nat_gen)
    (fun tid -> Keys.parse_trigger (Keys.trigger tid) = tid)

let prop_index =
  QCheck.Test.make ~name:"index keys round-trip" ~count:1000
    (QCheck.make ~print:QCheck.Print.(triple int pp_value pp_oid) (Gen.triple nat_gen value_gen oid_gen))
    (fun (idx_id, v, oid) ->
      let valkey = Value.index_key v in
      let tk = Keys.index_tree_key (Keys.index_entry ~idx_id ~valkey ~oid) in
      let idx_id', valkey', oid' = Keys.parse_index_tree_key tk in
      idx_id' = idx_id && valkey' = valkey && Oid.equal oid' oid && Oid.equal (Keys.oid_of_index_key tk) oid)

let prop_class_prefix =
  QCheck.Test.make ~name:"class prefix is exact" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair int pp_oid) (Gen.pair nat_gen oid_gen))
    (fun (cls, o) ->
      String.starts_with ~prefix:(Keys.header_prefix_class cls) (Keys.header o) = (o.Oid.cls = cls))

let prop_header_order =
  QCheck.Test.make ~name:"header keys sort by (cls, num)" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair pp_oid pp_oid) (Gen.pair oid_gen oid_gen))
    (fun (a, b) -> Int.compare (compare (Keys.header a) (Keys.header b)) 0 = Int.compare (Oid.compare a b) 0)

(* -- exact widths ---------------------------------------------------------- *)

(* The widest oid below 256 classes and 65,536 objects per class: its
   header key is 6 bytes (a tag, 1 + 1 for the class, 1 + 2 for the
   number) and an int field's index tree key 16 (1 + 1 for the index id,
   a type byte and 8 for the value, 5 for the oid). The 16-byte oid
   layout gave 17 and 33. A real store's keys stay within the same
   bounds. *)
let width_gate () =
  let o = { Oid.cls = 255; num = 65_535 } in
  Alcotest.(check int) "header key bytes" 6 (String.length (Keys.header o));
  let tk = Keys.index_tree_key (Keys.index_entry ~idx_id:255 ~valkey:(Value.index_key (Value.Int 7)) ~oid:o) in
  Alcotest.(check int) "int index tree key bytes" 16 (String.length tk);
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  ignore (Db.define db "class w { k: int; };");
  Db.create_cluster db "w";
  Db.create_index db ~cls:"w" ~field:"k";
  Db.with_txn db (fun txn ->
      for i = 0 to 299 do
        ignore (Db.pnew txn "w" [ ("k", Value.Int (i * 1_000_003)) ])
      done);
  let widest tree pred =
    let w = ref 0 in
    Ode_index.Bptree.iter_range tree (fun k _ ->
        if pred k then w := max !w (String.length k);
        true);
    !w
  in
  let hdr = widest db.kv_dir Keys.is_header_key in
  let idx = widest db.idx (fun _ -> true) in
  if hdr = 0 || hdr > 6 then Alcotest.failf "widest header key is %d bytes, want 1..6" hdr;
  if idx = 0 || idx > 16 then Alcotest.failf "widest index tree key is %d bytes, want 1..16" idx

(* -- the older layout is refused ------------------------------------------ *)

let old_layout_refused () =
  let dir = Tutil.temp_dir "oldkeys" in
  let db = Db.open_ dir in
  ignore (Db.define db "class z { v: int; };");
  Db.create_cluster db "z";
  Db.with_txn db (fun txn -> ignore (Db.pnew txn "z" [ ("v", Value.Int 1) ]));
  Db.close db;
  (* Stamp the previous format's magic into the heap header, with a valid
     page checksum, as a store written with self-describing object records
     (field names, u32 key framing) has it. *)
  let path = Filename.concat dir "objects.heap" in
  let file = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Bytes.blit_string "ODEHEAP2" 0 file 0 8;
  let data_end = Ode_storage.Page.data_end in
  Bytes.set_int64_le file data_end (Ode_util.Codec.fnv64_bytes file ~pos:0 ~len:data_end);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc file);
  match Db.open_ dir with
  | db ->
      Db.close db;
      Alcotest.fail "a store in the old record layout opened"
  | exception e ->
      let msg = Printexc.to_string e in
      if not (Tutil.contains msg "bad magic") then Alcotest.failf "refused for another reason: %s" msg

let suite =
  [
    ( "keys.layout",
      [
        Alcotest.test_case "compact widths" `Quick width_gate;
        Alcotest.test_case "old layout refused at open" `Quick old_layout_refused;
      ] );
    Tutil.qsuite "keys.parsers"
      [ prop_header; prop_version; prop_trigger; prop_index; prop_class_prefix; prop_header_order ];
  ]
