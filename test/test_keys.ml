(* The store's key layout: every [Keys] parser inverts its constructor, a
   class prefix covers exactly its class, header keys sort in cluster
   order, the compact widths (keys and activation records) are gated
   exactly, stores written in older
   layouts are refused at open, and small records live in their directory
   leaf. *)

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

(* An activation key parses back to its object and tid, and starts with
   its object's prefix and with no other object's: one prefix lookup
   finds exactly that object's activations. *)
let prop_trigger =
  QCheck.Test.make ~name:"trigger keys round-trip" ~count:500
    (QCheck.make ~print:QCheck.Print.(triple pp_oid int pp_oid) (Gen.triple oid_gen nat_gen oid_gen))
    (fun (o, tid, other) ->
      let k = Keys.trigger o tid in
      let o', tid' = Keys.parse_trigger k in
      Oid.equal o o' && tid = tid'
      && String.starts_with ~prefix:(Keys.triggers_of o) k
      && String.starts_with ~prefix:(Keys.triggers_of other) k = Oid.equal o other)

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
   number) and an int field's index tree key for the value 7 is 11 (1 + 1
   for the index id, a type byte, 3 for the value: 2 significant bytes
   of its float and a terminator, 5 for the oid). The 16-byte oid layout
   gave 17 and 33, and the 8-byte float image 16 for the index key. A
   real store's keys stay within the same bounds: its widest index key
   here, for a value near 3e8, takes 12. *)
let width_gate () =
  let o = { Oid.cls = 255; num = 65_535 } in
  Alcotest.(check int) "header key bytes" 6 (String.length (Keys.header o));
  let tk = Keys.index_tree_key (Keys.index_entry ~idx_id:255 ~valkey:(Value.index_key (Value.Int 7)) ~oid:o) in
  Alcotest.(check int) "int index tree key bytes" 11 (String.length tk);
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
  if idx = 0 || idx > 12 then Alcotest.failf "widest index tree key is %d bytes, want 1..12" idx

(* The store's B+tree page counts, pinned: a seeded 40k-object class
   whose int field is indexed, its values 0..39,999 in a random order,
   loaded through [Database] in commits of 1,000 and closed. The directory
   holds 40k header keys in ascending oid order, the index 40k keys in
   random order. Before node prefixes and the short number keys they took
   138 and 285 pages. *)
let store_pages () =
  let dir = Tutil.temp_dir "pages" in
  let db = Db.open_ dir in
  ignore (Db.define db "class p { k: int; };");
  Db.create_cluster db "p";
  Db.create_index db ~cls:"p" ~field:"k";
  let n = 40_000 in
  let order = Array.init n Fun.id and rng = Random.State.make [| 38 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  for b = 0 to (n / 1000) - 1 do
    Db.with_txn db (fun txn ->
        for j = b * 1000 to (b * 1000) + 999 do
          ignore (Db.pnew txn "p" [ ("k", Value.Int order.(j)) ])
        done)
  done;
  Db.close db;
  let pages file = (Unix.stat (Filename.concat dir file)).Unix.st_size / Ode_storage.Page.size in
  Alcotest.(check int) "directory.bpt pages" 110 (pages "directory.bpt");
  Alcotest.(check int) "indexes.bpt pages" 142 (pages "indexes.bpt")

(* The B+tree page counts of a store written as write-heavy workloads
   write it, pinned: 1,000 objects of 200-byte bodies (in the heap, so the
   directory holds their locations), then 1,500 transactions of 8
   operations, each a [pnew] (half), an update of a random older object
   (35%, a third of them after a [newversion]) or a [pdelete], and a clean
   close. New header keys ('H') land in the middle of the directory, ahead
   of the version keys ('V'), and fill their leaves as appends do: with an
   even cut of every such run the directory took 46 pages. The index keys
   ascend with the ids and append at the end of their tree. *)
let write_store_pages () =
  let dir = Tutil.temp_dir "wpages" in
  let db = Db.open_ ~durability:Db.Async dir in
  ignore (Db.define db "class rec { id: int; body: string; };");
  Db.create_cluster db "rec";
  Db.create_index db ~cls:"rec" ~field:"id";
  let rng = Random.State.make [| 40 |] in
  let body () = String.init 200 (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
  let live = ref [||] and n = ref 0 and next = ref 0 in
  let add oid =
    if !n = Array.length !live then live := Array.append !live (Array.make (max 1 !n) oid);
    !live.(!n) <- oid;
    incr n
  in
  let create txn =
    let oid = Db.pnew txn "rec" [ ("id", Value.Int !next); ("body", Value.Str (body ())) ] in
    incr next;
    oid
  in
  Db.with_txn db (fun txn ->
      for _ = 1 to 1000 do
        add (create txn)
      done);
  for _ = 1 to 1500 do
    (* Targets come from the objects live before the transaction, each
       touched once; a deleted one leaves [live] at the commit. *)
    let touched = Hashtbl.create 8 and created = ref [] and deleted = ref [] in
    Db.with_txn db (fun txn ->
        for _ = 1 to 8 do
          let r = Random.State.int rng 100 in
          let i = Random.State.int rng !n in
          if r < 50 || Hashtbl.mem touched i then created := create txn :: !created
          else begin
            Hashtbl.add touched i ();
            let oid = !live.(i) in
            if r < 85 then begin
              if Random.State.int rng 3 = 0 then ignore (Db.newversion txn oid);
              Db.update txn oid [ ("body", Value.Str (body ())) ]
            end
            else begin
              Db.pdelete txn oid;
              deleted := i :: !deleted
            end
          end
        done);
    List.iter
      (fun i ->
        decr n;
        !live.(i) <- !live.(!n))
      (List.sort (fun a b -> compare b a) !deleted);
    List.iter add (List.rev !created)
  done;
  Db.close db;
  let pages file = (Unix.stat (Filename.concat dir file)).Unix.st_size / Ode_storage.Page.size in
  Alcotest.(check int) "directory.bpt pages" 31 (pages "directory.bpt");
  Alcotest.(check int) "indexes.bpt pages" 26 (pages "indexes.bpt")

(* An activation names its declaration by class id and position and takes
   its object and tid from the key; the declaration fixes the argument
   count and types. With no arguments and a declaring class below 128 the
   record is 3 bytes (1 of declaring class, 1 of position, flags), and the
   directory value, its tag byte included, 4. The key is the tag, the
   oid-key and the tid: 6 bytes for object 299 of class 0 and tid 0, and
   at most 8 for a class below 256, a number below 65,536 and a tid below
   256. The record with names and fixed-width integers took 46, the one
   with an argument count 7, and the one that held the oid 6. *)
let activation_width () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  ignore (Db.define db "class w { k: int; trigger perpetual p(): k < 0 ==> { k := 0; }; };");
  Db.create_cluster db "w";
  let o, tid =
    Db.with_txn db (fun txn ->
        let o = ref None in
        for _ = 0 to 299 do
          o := Some (Db.pnew txn "w" [ ("k", Value.Int 1) ])
        done;
        let o = Option.get !o in
        (o, Db.activate txn o "p" []))
  in
  let key = Keys.trigger o tid in
  Alcotest.(check int) "key of object 299, tid 0" 6 (String.length key);
  Alcotest.(check int) "widest small key" 8
    (String.length (Keys.trigger { Oid.cls = 255; num = 65_535 } 255));
  (match Ode_index.Bptree.find db.kv_dir key with
  | Some v -> Alcotest.(check int) "activation directory value" 4 (String.length v)
  | None -> Alcotest.fail "activation record missing");
  let a = Ode.Triggers.decode_activation db key (Option.get (Ode.Kv.get db key)) in
  let widest = Ode.Triggers.encode_activation [] { a with tdecl = 127 } in
  Alcotest.(check int) "widest one-byte-class record" 3 (String.length widest)

(* -- typed slots --------------------------------------------------------------- *)

module Otype = Ode_model.Otype

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Types nested up to two deep, a set of lists and a list of sets
   included. *)
let type_gen =
  let open Gen in
  let base = oneofl Otype.[ TInt; TBool; TString; TFloat; TRef "z" ] in
  oneof
    [
      base;
      map (fun t -> Otype.TSet t) base;
      map (fun t -> Otype.TList t) base;
      map (fun t -> Otype.TSet (Otype.TList t)) base;
      map (fun t -> Otype.TList (Otype.TSet t)) base;
    ]

let typed_gen = Gen.(type_gen >>= fun t -> map (fun v -> (t, v)) (Tutil.value_of_type_gen t))

(* A slot reads back exactly what was written, consuming all of it: an
   [Int] in a float slot comes back an [Int], hence [compare] rather than
   [Value.equal], which equates [Int 1] and [Float 1.]. *)
let prop_slot_roundtrip =
  QCheck.Test.make ~name:"slots round-trip by type" ~count:2000
    (QCheck.make ~print:(fun (t, v) -> Otype.to_string t ^ " " ^ pp_value v) typed_gen)
    (fun (t, v) ->
      let b = Buffer.create 16 in
      Ode.Store.put_slot b t v;
      let c = Ode_util.Codec.cursor (Buffer.contents b) in
      let v' = Ode.Store.get_slot c t in
      compare v' v = 0 && Ode_util.Codec.at_end c)

(* One record per type, pinned byte for byte. *)
let golden_slots () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  ignore
    (Db.define db
       "class g { i: int; b: bool; s: string; f: float; r: ref g; xs: set<int>; l: list<ref g>; };");
  Db.create_cluster db "g";
  let o = { Oid.cls = 0; num = 0 } in
  let record slots = hex (Ode.Store.encode_object db o { hcurrent = 0; hversions = [ 0 ] } slots) in
  let field name ty v expected =
    let b = Buffer.create 16 in
    Ode.Store.put_slot b ty v;
    Alcotest.(check string) name expected (hex (Buffer.contents b))
  in
  field "int -42" Otype.TInt (Value.Int (-42)) "53";
  field "int 300" Otype.TInt (Value.Int 300) "d804";
  field "int min_int" Otype.TInt (Value.Int min_int) "ffffffffffffffff7f";
  field "bool" Otype.TBool (Value.Bool true) "01";
  field "string" Otype.TString (Value.Str "h\000i") "03680069";
  field "float" Otype.TFloat (Value.Float 1.5) "00000000000000f83f";
  field "int in a float field" Otype.TFloat (Value.Int (-3)) "0105";
  field "null ref" (Otype.TRef "g") Value.Null "00";
  field "ref" (Otype.TRef "g") (Value.Ref { cls = 3; num = 70000 }) "0103f0a204";
  field "vref" (Otype.TRef "g") (Value.Vref { oid = { cls = 1; num = 2 }; ver = 5 }) "02010205";
  field "set" (Otype.TSet Otype.TInt) (Value.VSet [ Value.Int 1; Value.Int 7 ]) "02020e";
  field "list of sets" (Otype.TList (Otype.TSet Otype.TBool))
    (Value.VList [ Value.VSet []; Value.VSet [ Value.Bool true ] ])
    "02000101";
  let slots =
    Value.
      [|
        Int 7; Bool false; Str "ab"; Float 0.; Ref o; VSet [ Int (-1) ]; VList [ Null; Vref { oid = o; ver = 1 } ];
      |]
  in
  Alcotest.(check string) "unversioned record" "000e000261620000000000000000000100000101020002000001" (record slots);
  Alcotest.(check string) "versioned header" "0402020100"
    (hex (String.sub (Ode.Store.encode_object db o { hcurrent = 2; hversions = [ 2; 1; 0 ] } slots) 0 5));
  let unversioned = record slots in
  Alcotest.(check string) "version record: the slots alone"
    (String.sub unversioned 2 (String.length unversioned - 2))
    (hex (Ode.Store.encode_version db o slots));
  (* And each decodes back. *)
  let h, back = Ode.Store.decode_object db o (Ode.Store.encode_object db o { hcurrent = 2; hversions = [ 2; 1; 0 ] } slots) in
  Alcotest.(check (list int)) "versions" [ 2; 1; 0 ] h.hversions;
  Tutil.check_bool "slots" true (back = slots)

(* serve-mixed's account, at its largest load-time number: a one-byte
   header (never versioned), 3 bytes of number, 7 of owner, 3 of balance.
   Tagged slots with a three-byte header took 32. *)
let account_size () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  ignore (Db.define db "class account { number: int; owner: string; balance: int; };");
  Db.create_cluster db "account";
  let o =
    Db.with_txn db (fun txn ->
        Db.pnew txn "account"
          [ ("number", Value.Int 12245); ("owner", Value.Str "o12245"); ("balance", Value.Int 1000999) ])
  in
  match Ode.Kv.get db (Keys.header o) with
  | Some payload -> Alcotest.(check int) "account H payload bytes" 14 (String.length payload)
  | None -> Alcotest.fail "account record missing"

(* -- the older layouts are refused ----------------------------------------- *)

let old_layout_refused () =
  let dir = Tutil.temp_dir "oldkeys" in
  let db = Db.open_ dir in
  ignore (Db.define db "class z { v: int; };");
  Db.create_cluster db "z";
  Db.with_txn db (fun txn -> ignore (Db.pnew txn "z" [ ("v", Value.Int 1) ]));
  Db.close db;
  let path = Filename.concat dir "objects.heap" in
  let current = In_channel.with_open_bin path In_channel.input_all in
  (* Stamp an earlier format's magic into the heap header, with a valid
     page checksum, as a store of that build has it: ODEHEAP2 wrote
     self-describing object records with u32 key framing, ODEHEAP3 kept
     every record in the heap behind a bare 6-byte rid, ODEHEAP4 named an
     activation's class and trigger and kept the oid counters in the
     catalog, ODEHEAP5 tagged every slot and argument with its kind,
     ODEHEAP6 keyed an activation by its tid alone, ODEHEAP7 kept the
     checkpoint LSN in a sidecar file beside the log. *)
  List.iter
    (fun magic ->
      let file = Bytes.of_string current in
      Bytes.blit_string magic 0 file 0 8;
      let data_end = Ode_storage.Page.data_end in
      Bytes.set_int64_le file data_end (Ode_util.Codec.fnv64_sub (Bytes.to_string file) ~pos:0 ~len:data_end);
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc file);
      match Db.open_ dir with
      | db ->
          Db.close db;
          Alcotest.failf "a store stamped %s opened" magic
      | exception Ode_util.Codec.Corrupt msg ->
          if not (Tutil.contains msg (path ^ ": bad magic \"" ^ magic ^ "\"")) then
            Alcotest.failf "%s refused for another reason: %s" magic msg
      | exception e ->
          Alcotest.failf "%s refused with %s, not as corrupt" magic (Printexc.to_string e))
    [ "ODEHEAP2"; "ODEHEAP3"; "ODEHEAP4"; "ODEHEAP5"; "ODEHEAP6"; "ODEHEAP7" ]

(* -- records in the directory leaf ------------------------------------------- *)

let kv_apply db ops = Ode.Kv.apply_sorted db ops ~skip:(0, 0) ~on_new:ignore ~on_gone:ignore
let kv_put db puts = kv_apply db (Array.map (fun (k, p) -> (k, Ode.Types.Put p)) puts)

(* Where the directory keeps [key]'s record. *)
let home db key =
  match Ode_index.Bptree.find db.Ode.Types.kv_dir key with
  | None -> "absent"
  | Some v -> ( match Ode.Kv.decode_entry v with Ode.Kv.Inline _ -> "leaf" | Ode.Kv.At _ -> "heap")

(* Updates that cross [Kv.inline_max] either way move a record between its
   leaf and the heap, in mixed batches, payloads past a page included.
   After each step the store verifies, every payload reads back, each
   record is in the home its size chooses, and the heap holds exactly the
   out-of-line records. *)
let records_cross_the_limit () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class z { v: int; };");
  let max = Ode.Kv.inline_max in
  let keys = Array.init 4 (fun i -> Printf.sprintf "\xffkv%d" i) in
  let heap0 = Ode_storage.Heap.record_count db.Ode.Types.kv_heap in
  let step sizes =
    let puts = Array.mapi (fun i n -> (keys.(i), String.make n (Char.chr (97 + i)))) sizes in
    kv_put db puts;
    (match Ode.Verify.run db with Ok () -> () | Error ps -> Alcotest.fail (String.concat "; " ps));
    Array.iter
      (fun (k, p) ->
        Tutil.check_bool "payload reads back" true (Ode.Kv.get db k = Some p);
        Tutil.check_string "home by size" (if String.length p <= max then "leaf" else "heap") (home db k))
      puts;
    let out = Array.fold_left (fun n len -> if len > max then n + 1 else n) 0 sizes in
    Tutil.check_int "heap holds the out-of-line records" (heap0 + out)
      (Ode_storage.Heap.record_count db.Ode.Types.kv_heap)
  in
  step [| 10; max + 1; max; 3 * max |];
  step [| max + 72; max; max + 1; 5 |];
  step [| max; 9000; 1; max + 1 |];
  step [| 0; 40; max + 16; max - 16 |];
  step [| 9000; max + 1; max; 200 |];
  (* A key too long for its record to fit a node beside it keeps even a
     small payload in the heap. *)
  let long = "\xff" ^ String.make 1000 'k' in
  kv_put db [| (long, String.make 100 'l') |];
  Tutil.check_string "long key's record in the heap" "heap" (home db long);
  (match Ode.Verify.run db with Ok () -> () | Error ps -> Alcotest.fail (String.concat "; " ps));
  kv_apply db (Array.map (fun k -> (k, Ode.Types.Del)) (Array.append [| long |] keys));
  Tutil.check_int "deletes free the heap records" heap0
    (Ode_storage.Heap.record_count db.Ode.Types.kv_heap);
  Array.iter (fun k -> Tutil.check_string "deleted" "absent" (home db k)) keys;
  Db.close db

(* An inline [Kv.get] reads the payload straight from the pinned leaf: a
   hit allocates only the payload and its option, in the style of
   [Bptree.find]'s gate. *)
let inline_get_allocates_only_its_result () =
  let db = Db.open_in_memory () in
  let n = 4000 in
  let keys = Array.init n (fun i -> Printf.sprintf "\xffg%05d" i) in
  kv_put db (Array.map (fun k -> (k, String.make 64 'p')) keys);
  Tutil.check_string "rows are inline" "leaf" (home db keys.(0));
  let probes = Array.init 10_000 (fun i -> keys.(i * 7 mod n)) in
  Array.iter (fun k -> ignore (Ode.Kv.get db k)) probes;
  let result_words = Obj.reachable_words (Obj.repr (Ode.Kv.get db probes.(0))) in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length probes - 1 do
    ignore (Sys.opaque_identity (Ode.Kv.get db probes.(i)))
  done;
  let per_get = (Gc.minor_words () -. w0) /. float (Array.length probes) in
  Db.close db;
  if per_get > float result_words then
    Alcotest.failf "inline get allocates %.2f words a hit; its result is %d" per_get result_words

let suite =
  [
    ( "keys.layout",
      [
        Alcotest.test_case "compact widths" `Quick width_gate;
        Alcotest.test_case "activation width" `Quick activation_width;
        Alcotest.test_case "40k-object store page counts" `Quick store_pages;
        Alcotest.test_case "write-shaped store page counts" `Quick write_store_pages;
        Alcotest.test_case "old layout refused at open" `Quick old_layout_refused;
        Alcotest.test_case "slot bytes by type" `Quick golden_slots;
        Alcotest.test_case "account record size" `Quick account_size;
        Alcotest.test_case "records cross the inline limit" `Quick records_cross_the_limit;
        Alcotest.test_case "inline get allocates only its result" `Quick
          inline_get_allocates_only_its_result;
      ] );
    Tutil.qsuite "keys.parsers"
      [ prop_header; prop_version; prop_trigger; prop_index; prop_class_prefix; prop_header_order ];
    Tutil.qsuite "keys.slots" [ prop_slot_roundtrip ];
  ]
