(* Triggers (paper §6): once-only vs perpetual, weak coupling, deactivation,
   timed triggers, cascades, and abort semantics. *)

module Db = Ode.Database
module Value = Ode_model.Value
module Parser = Ode_lang.Parser

let int n = Value.Int n

(* A database whose trigger actions append to [log]. *)
let setup () =
  let db = Db.open_in_memory () in
  let log = Buffer.create 64 in
  Db.set_action_printer db (Buffer.add_string log);
  ignore
    (Db.define db
       {|class item {
           name: string;
           qty: int;
           trigger reorder(n: int): qty <= n ==> { print "reorder", name; };
           trigger perpetual audit(): qty < 0 ==> { print "negative", name; };
           trigger expedite(): within 5 : qty > 100 ==> { print "arrived", name; }
                    timeout { print "late", name; };
         };|});
  Db.create_cluster db "item";
  (db, log)

let lines log = String.split_on_char '\n' (String.trim (Buffer.contents log))
let no_output log = String.trim (Buffer.contents log) = ""

let fires_when_condition_becomes_true () =
  let db, log = setup () in
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "bolt"); ("qty", int 100) ] in
        ignore (Db.activate txn i "reorder" [ int 10 ]);
        i)
  in
  Tutil.check_bool "armed but silent" true (no_output log);
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 5));
  Tutil.check_string_list "fired after commit" [ "reorder bolt" ] (lines log);
  (* Once-only: further matching updates stay silent. *)
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 1));
  Tutil.check_string_list "once-only" [ "reorder bolt" ] (lines log);
  Db.close db

let fires_if_already_true_at_activation () =
  let db, log = setup () in
  Db.with_txn db (fun txn ->
      let i = Db.pnew txn "item" [ ("name", Value.Str "low"); ("qty", int 1) ] in
      ignore (Db.activate txn i "reorder" [ int 10 ]));
  Tutil.check_string_list "fires at activating commit" [ "reorder low" ] (lines log);
  Db.close db

let perpetual_keeps_firing () =
  let db, log = setup () in
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "odd"); ("qty", int 5) ] in
        ignore (Db.activate txn i "audit" []);
        i)
  in
  (* Perpetual triggers are edge-triggered ("fires when its condition
     becomes true"): each false→true transition fires, staying true does
     not. *)
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int (-1)));
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int (-2)));
  Tutil.check_string_list "no refire while still true" [ "negative odd" ] (lines log);
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 5));
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int (-3)));
  Tutil.check_string_list "fires on each transition" [ "negative odd"; "negative odd" ] (lines log);
  Db.close db

let reactivation_rearms_once_only () =
  let db, log = setup () in
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "re"); ("qty", int 100) ] in
        ignore (Db.activate txn i "reorder" [ int 10 ]);
        i)
  in
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 5));
  Db.with_txn db (fun txn -> ignore (Db.activate txn i "reorder" [ int 10 ]));
  (* Condition already true at reactivation: fires again immediately. *)
  Tutil.check_string_list "re-armed" [ "reorder re"; "reorder re" ] (lines log);
  Db.close db

let deactivate_silences () =
  let db, log = setup () in
  let i, tid =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "x"); ("qty", int 100) ] in
        let tid = Db.activate txn i "reorder" [ int 10 ] in
        (i, tid))
  in
  Db.with_txn db (fun txn -> Db.deactivate txn tid);
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 0));
  Tutil.check_bool "silent" true (no_output log);
  Db.close db

let aborted_txn_fires_nothing () =
  let db, log = setup () in
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "a"); ("qty", int 100) ] in
        ignore (Db.activate txn i "reorder" [ int 10 ]);
        i)
  in
  let txn = Db.begin_txn db in
  Db.set_field txn i "qty" (int 0);
  Db.abort txn;
  Tutil.check_bool "weak coupling respects abort" true (no_output log);
  (* And the trigger is still armed for a real commit. *)
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 0));
  Tutil.check_string_list "armed" [ "reorder a" ] (lines log);
  Db.close db

let deleted_object_drops_activations () =
  let db, log = setup () in
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "d"); ("qty", int 100) ] in
        ignore (Db.activate txn i "reorder" [ int 10 ]);
        i)
  in
  Db.with_txn db (fun txn -> Db.pdelete txn i);
  Tutil.check_bool "no firing on delete" true (no_output log);
  Db.close db

(* The activations of an object deleted in a commit that also touches
   objects of a class without triggers still go from the store, and stay
   gone across a reopen. The rule-less objects cost the trigger pass no
   read, and must not make it skip the deleted one. *)
let deleted_object_drops_activations_beside_ruleless () =
  let dir = Tutil.temp_dir "trig-ruleless" in
  let open_db () =
    let db = Db.open_ dir in
    Db.set_action_printer db ignore;
    db
  in
  let db = open_db () in
  ignore
    (Db.define db
       {|class item { name: string; qty: int;
           trigger reorder(n: int): qty <= n ==> { print "reorder", name; }; };
         class plain { v: int; };|});
  Db.create_cluster db "item";
  Db.create_cluster db "plain";
  let i, tid, plains =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "d"); ("qty", int 100) ] in
        let tid = Db.activate txn i "reorder" [ int 10 ] in
        (i, tid, List.init 10 (fun k -> Db.pnew txn "plain" [ ("v", int k) ])))
  in
  Db.with_txn db (fun txn ->
      List.iter (fun p -> Db.set_field txn p "v" (int 99)) plains;
      Db.pdelete txn i;
      ignore (Db.pnew txn "plain" [ ("v", int 7) ]));
  let gone db =
    Tutil.check_bool "activation record removed" true
      (Ode.Kv.get db (Ode.Keys.trigger i tid) = None)
  in
  gone db;
  Db.close db;
  let db = open_db () in
  gone db;
  Db.close db

(* The activation records in the store, decoded. *)
let records db =
  let acc = ref [] in
  Ode.Kv.iter_prefix db Ode.Keys.trigger_prefix (fun key payload ->
      acc := Ode.Triggers.decode_activation db key payload :: !acc;
      true);
  List.rev !acc

(* Deleting an object removes every activation record under it, the
   inactive ones too: a once-only activation that fired and one that was
   deactivated. Verify reports any record left on a dead object. *)
let deletion_drops_inactive_records () =
  let db, log = setup () in
  let a, b, tid_b =
    Db.with_txn db (fun txn ->
        let a = Db.pnew txn "item" [ ("name", Value.Str "a"); ("qty", int 100) ] in
        let b = Db.pnew txn "item" [ ("name", Value.Str "b"); ("qty", int 100) ] in
        ignore (Db.activate txn a "reorder" [ int 10 ]);
        (a, b, Db.activate txn b "reorder" [ int 10 ]))
  in
  Db.with_txn db (fun txn -> Db.set_field txn a "qty" (int 5));
  Db.with_txn db (fun txn -> Db.deactivate txn tid_b);
  Tutil.check_string_list "fired once" [ "reorder a" ] (lines log);
  Tutil.check_int "two inactive records" 2
    (List.length (List.filter (fun (r : Ode.Types.activation) -> not r.active) (records db)));
  Db.with_txn db (fun txn ->
      Db.pdelete txn a;
      Db.pdelete txn b);
  Tutil.check_int "no record left" 0 (List.length (records db));
  Tutil.verified db;
  Db.close db

(* A trigger id deactivates after a reopen: the id finds its record in
   the store, and the object's later update fires nothing. *)
let deactivate_after_reopen () =
  let dir = Tutil.temp_dir "trig-deact" in
  let db = Db.open_ dir in
  ignore
    (Db.define db
       {|class it { qty: int; trigger low(n: int): qty < n ==> { print "low!"; }; };|});
  Db.create_cluster db "it";
  let i, tid =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "it" [ ("qty", int 100) ] in
        ignore (Db.pnew txn "it" [ ("qty", int 100) ]);
        (i, Db.activate txn i "low" [ int 10 ]))
  in
  Db.close db;
  let db = Db.open_ dir in
  let log = Buffer.create 16 in
  Db.set_action_printer db (Buffer.add_string log);
  Db.with_txn db (fun txn -> Db.deactivate txn tid);
  (match Db.with_txn db (fun txn -> Db.deactivate txn (tid + 1)) with
  | () -> Alcotest.fail "an unknown trigger id deactivated"
  | exception Ode_util.Ode_error.Error { cls = User; msg } ->
      Tutil.check_string "unknown id" (Printf.sprintf "trigger error: no such trigger activation %d" (tid + 1)) msg);
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 5));
  Tutil.check_bool "silent" true (no_output log);
  Tutil.check_bool "the record is inactive" true
    (List.map (fun (r : Ode.Types.activation) -> (r.tid, r.active)) (records db) = [ (tid, false) ]);
  Db.close db

(* A timed trigger whose deadline passes after crash recovery times out
   exactly once, and its retirement survives a second crash. *)
let timed_trigger_after_crash () =
  let dir = Tutil.temp_dir "trig-timed" in
  let log = Buffer.create 16 in
  let open_db () =
    let db = Db.open_ dir in
    Db.set_action_printer db (Buffer.add_string log);
    db
  in
  let db = open_db () in
  ignore
    (Db.define db
       {|class it { qty: int;
           trigger expedite(): within 5 : qty > 100 ==> { print "arrived"; } timeout { print "late"; }; };|});
  Db.create_cluster db "it";
  Db.with_txn db (fun txn -> ignore (Db.activate txn (Db.pnew txn "it" [ ("qty", int 1) ]) "expedite" []));
  Db.advance_time db 3;
  Db.crash db;
  let db = open_db () in
  Db.advance_time db 3;
  Tutil.check_string_list "timed out after recovery" [ "late" ] (lines log);
  Db.advance_time db 10;
  Db.crash db;
  let db = open_db () in
  Db.advance_time db 10;
  Tutil.check_string_list "exactly once" [ "late" ] (lines log);
  Tutil.verified db;
  Db.close db

(* An open handle holds nothing per activation: the store is the only
   copy. A file store of 5,000 activated objects and the same store
   without the activations leave live heaps within 10,000 words of each
   other once open, after a full major collection; an in-memory copy of
   the decoded activations would hold about 158k words more. *)
let open_holds_no_activations () =
  let build activate =
    let dir = Tutil.temp_dir "trig-mem" in
    let db = Db.open_ dir in
    ignore
      (Db.define db
         {|class it { qty: int; trigger perpetual low(n: int): qty < n ==> { print "low!"; }; };|});
    Db.create_cluster db "it";
    Db.with_txn db (fun txn ->
        for k = 1 to 5_000 do
          let o = Db.pnew txn "it" [ ("qty", int k) ] in
          if activate then ignore (Db.activate txn o "low" [ int 0 ])
        done);
    Db.close db;
    dir
  in
  let live dir =
    Gc.full_major ();
    let before = (Gc.stat ()).live_words in
    let db = Db.open_ dir in
    Gc.full_major ();
    let after = (Gc.stat ()).live_words in
    Db.close db;
    after - before
  in
  let activated = live (build true) and bare = live (build false) in
  if abs (activated - bare) >= 10_000 then
    Alcotest.failf "open store: %d live words with 5,000 activations, %d without" activated bare

let action_self_touch_does_not_loop () =
  (* A perpetual action that leaves its own condition true must not fire
     itself forever: edge-triggering stops it after one firing. *)
  let db = Db.open_in_memory () in
  let log = Buffer.create 64 in
  Db.set_action_printer db (Buffer.add_string log);
  ignore
    (Db.define db
       {|class cnt {
           v: int;
           trigger perpetual bump(): v > 0 ==> { this.v := this.v + 1; print "bumped", str(this.v); };
         };|});
  Db.create_cluster db "cnt";
  Db.with_txn db (fun txn ->
      let c = Db.pnew txn "cnt" [ ("v", int 0) ] in
      ignore (Db.activate txn c "bump" []);
      Db.set_field txn c "v" (int 1));
  Tutil.check_string_list "one firing only" [ "bumped 2" ] (lines log);
  Db.close db

let action_cascade_across_objects () =
  (* Cascades still work when each firing is a genuine transition: a chain
     of dominoes, each trigger toppling the next object. *)
  let db = Db.open_in_memory () in
  let log = Buffer.create 64 in
  Db.set_action_printer db (Buffer.add_string log);
  ignore
    (Db.define db
       {|class domino {
           n: int; fallen: bool; next: ref domino;
           trigger topple(): fallen ==>
             { print "domino", str(n);
               if (next != null) { next.fallen := true; }; };
         };|});
  Db.create_cluster db "domino";
  Db.with_txn db (fun txn ->
      let d3 = Db.pnew txn "domino" [ ("n", int 3) ] in
      let d2 = Db.pnew txn "domino" [ ("n", int 2); ("next", Value.Ref d3) ] in
      let d1 = Db.pnew txn "domino" [ ("n", int 1); ("next", Value.Ref d2) ] in
      ignore (Db.activate txn d1 "topple" []);
      ignore (Db.activate txn d2 "topple" []);
      ignore (Db.activate txn d3 "topple" []);
      Db.set_field txn d1 "fallen" (Value.Bool true));
  Tutil.check_string_list "chain reaction" [ "domino 1"; "domino 2"; "domino 3" ] (lines log);
  Db.close db

let timed_trigger_timeout () =
  let db, log = setup () in
  Db.with_txn db (fun txn ->
      let i = Db.pnew txn "item" [ ("name", Value.Str "t"); ("qty", int 1) ] in
      ignore (Db.activate txn i "expedite" []));
  Db.advance_time db 3;
  Tutil.check_bool "before deadline: silent" true (no_output log);
  Db.advance_time db 3;
  Tutil.check_string_list "timeout action" [ "late t" ] (lines log);
  (* Only once. *)
  Db.advance_time db 10;
  Tutil.check_string_list "timeout once" [ "late t" ] (lines log);
  Db.close db

let timed_trigger_satisfied_before_deadline () =
  let db, log = setup () in
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "item" [ ("name", Value.Str "ok"); ("qty", int 1) ] in
        ignore (Db.activate txn i "expedite" []);
        i)
  in
  Db.with_txn db (fun txn -> Db.set_field txn i "qty" (int 500));
  Tutil.check_string_list "normal action" [ "arrived ok" ] (lines log);
  Db.advance_time db 10;
  Tutil.check_string_list "no timeout after firing" [ "arrived ok" ] (lines log);
  Db.close db

let activations_persist () =
  let dir = Tutil.temp_dir "trig" in
  let db = Db.open_ dir in
  ignore
    (Db.define db
       {|class it { qty: int; trigger low(n: int): qty < n ==> { print "low!"; }; };|});
  Db.create_cluster db "it";
  let i =
    Db.with_txn db (fun txn ->
        let i = Db.pnew txn "it" [ ("qty", int 100) ] in
        ignore (Db.activate txn i "low" [ int 10 ]);
        i)
  in
  Db.close db;
  let db2 = Db.open_ dir in
  let log = Buffer.create 16 in
  Db.set_action_printer db2 (Buffer.add_string log);
  Db.with_txn db2 (fun txn -> Db.set_field txn i "qty" (int 5));
  Tutil.check_string_list "fired after reopen" [ "low!" ] (lines log);
  Db.close db2

let trigger_params_used_in_condition () =
  let db, log = setup () in
  Db.with_txn db (fun txn ->
      let a = Db.pnew txn "item" [ ("name", Value.Str "a"); ("qty", int 7) ] in
      let b = Db.pnew txn "item" [ ("name", Value.Str "b"); ("qty", int 7) ] in
      ignore (Db.activate txn a "reorder" [ int 5 ]);
      ignore (Db.activate txn b "reorder" [ int 10 ]));
  (* qty=7: below b's threshold only. *)
  Tutil.check_string_list "parameterized" [ "reorder b" ] (lines log);
  Db.close db

(* Each argument must conform to its parameter's declared type, as a
   field value must: the record stores it by that type. An int where a
   float is declared conforms, and the activation leaves nothing behind
   when it is refused. *)
let argument_types_checked () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class it { qty: int;
           trigger low(n: int, f: float, peer: ref it): qty < n ==> { print "low!"; }; };
         class other { k: int; };|});
  Db.create_cluster db "it";
  Db.create_cluster db "other";
  let i, o =
    Db.with_txn db (fun txn -> (Db.pnew txn "it" [ ("qty", int 100) ], Db.pnew txn "other" []))
  in
  let refused args expect =
    match Db.with_txn db (fun txn -> Db.activate txn i "low" args) with
    | _ -> Alcotest.failf "activation with %s accepted" expect
    | exception Ode_util.Ode_error.Error { cls = User; msg } ->
        if not (String.starts_with ~prefix:"trigger error: " msg && Tutil.contains msg expect) then Alcotest.failf "wrong error %S, want %S" msg expect
  in
  refused [ Value.Str "10"; int 1; Value.Null ] "trigger low: argument n expects int, got \"10\"";
  refused [ int 10; Value.Bool true; Value.Null ] "argument f expects float, got true";
  refused [ int 10; int 1; Value.Ref o ] "argument peer expects ref it";
  Tutil.check_int "nothing activated" 0 (List.length (records db));
  let tid = Db.with_txn db (fun txn -> Db.activate txn i "low" [ int 10; int 1; Value.Ref i ]) in
  let a = List.find (fun (r : Ode.Types.activation) -> r.tid = tid) (records db) in
  Tutil.check_values "an int in a float parameter stays an int" [ int 10; int 1; Value.Ref i ] a.targs;
  Tutil.check_bool "exactly" true (a.targs = [ int 10; int 1; Value.Ref i ]);
  Db.close db

(* -- the activation record ------------------------------------------------ *)

module Gen = QCheck.Gen
module Oid = Ode_model.Oid
module Catalog = Ode_model.Catalog
module Schema = Ode_model.Schema
module Triggers = Ode.Triggers

(* Once-only, perpetual and timed triggers, declared in [a] and [e] and
   inherited by [d] through two parents, which [d]'s own trigger follows;
   [e]'s [t6] takes a parameter of every type. *)
let layout_db =
  lazy
    (let db = Db.open_in_memory () in
     ignore
       (Db.define db
          {|class a { x: int;
              trigger t1(): x > 0 ==> { x := 0; };
              trigger perpetual t2(n: int): x > n ==> { x := 0; }; };
            class e { y: int;
              trigger perpetual t3(): y > 0 ==> { y := 0; };
              trigger t4(): within 5 : y > 1 ==> { y := 0; } timeout { y := 1; };
              trigger perpetual t6(f: float, s: string, b: bool, r: ref a, xs: set<int>,
                                   ls: list<set<ref e>>): y > 2 ==> { y := 0; }; };
            class d : e, a { z: int; trigger t5(): z > 0 ==> { z := 0; }; };|});
     db)

(* (object's class, declaring class, position there) *)
let placements =
  [
    ("a", "a", 0); ("a", "a", 1); ("e", "e", 0); ("e", "e", 1); ("e", "e", 2);
    ("d", "a", 0); ("d", "a", 1); ("d", "e", 0); ("d", "e", 1); ("d", "e", 2); ("d", "d", 0);
  ]

let nat_gen = Tutil.nat_gen

(* Arguments by the declaration's parameter types, with class ids,
   numbers and versions across the whole non-negative range. *)
let args_gen (g : Schema.trigger) =
  Gen.flatten_l (List.map (fun (p : Schema.field) -> Tutil.value_of_type_gen p.ftype) g.gparams)

let deadline_gen =
  Gen.(
    frequency
      [
        (3, return None);
        (2, map (fun n -> Some n) nat_gen);
        (2, map (fun n -> Some (-n - 1)) nat_gen);
        (1, oneofl [ Some max_int; Some min_int ]);
      ])

let activation_gen =
  let open Gen in
  let db = Lazy.force layout_db in
  triple (oneofl placements) (pair nat_gen nat_gen) (pair deadline_gen bool)
  >>= fun ((obj, dname, tpos), (tid, num), (deadline, active)) ->
  let o = Catalog.find_exn db.catalog obj and d = Catalog.find_exn db.catalog dname in
  let g = List.nth d.own_triggers tpos in
  map
    (fun targs ->
      {
        Ode.Types.tid;
        aoid = { Oid.cls = o.id; num };
        tdecl = d.id;
        tpos;
        tcls = d.name;
        tname = g.gname;
        targs;
        perpetual = g.gperpetual;
        deadline;
        active;
      })
    (args_gen g)

let pp_activation (a : Ode.Types.activation) =
  Printf.sprintf "tid %d on %s: %s.%s(%s) deadline %s%s" a.tid
    (Fmt.to_to_string Oid.pp a.aoid)
    a.tcls a.tname
    (String.concat ", " (List.map Value.to_string a.targs))
    (match a.deadline with Some d -> string_of_int d | None -> "none")
    (if a.active then "" else " inactive")

(* Every field comes back, the names as the catalog's own strings and each
   argument exactly: an int in a float parameter as an int. *)
let prop_activation_roundtrip =
  QCheck.Test.make ~name:"activation records round-trip" ~count:1000
    (QCheck.make ~print:pp_activation activation_gen)
    (fun a ->
      let db = Lazy.force layout_db in
      let d = Catalog.find_exn db.catalog a.tcls in
      let g = List.nth d.own_triggers a.tpos in
      let params = List.map (fun (p : Schema.field) -> p.ftype) g.gparams in
      let b =
        Triggers.decode_activation db (Ode.Keys.trigger a.aoid a.tid) (Triggers.encode_activation params a)
      in
      b.tid = a.tid && Oid.equal b.aoid a.aoid && b.tdecl = a.tdecl && b.tpos = a.tpos
      && b.tcls == d.name
      && b.tname == (List.nth d.own_triggers a.tpos).gname
      && compare b.targs a.targs = 0
      && b.perpetual = a.perpetual && b.deadline = a.deadline && b.active = a.active)

let suite =
  [
    ( "triggers",
      [
        Alcotest.test_case "fires when condition becomes true" `Quick fires_when_condition_becomes_true;
        Alcotest.test_case "fires if already true at activation" `Quick fires_if_already_true_at_activation;
        Alcotest.test_case "perpetual keeps firing" `Quick perpetual_keeps_firing;
        Alcotest.test_case "reactivation re-arms once-only" `Quick reactivation_rearms_once_only;
        Alcotest.test_case "deactivate silences" `Quick deactivate_silences;
        Alcotest.test_case "aborted txn fires nothing" `Quick aborted_txn_fires_nothing;
        Alcotest.test_case "deleting object drops activations" `Quick deleted_object_drops_activations;
        Alcotest.test_case "deletion drops activations beside rule-less objects" `Quick
          deleted_object_drops_activations_beside_ruleless;
        Alcotest.test_case "deletion drops inactive records" `Quick deletion_drops_inactive_records;
        Alcotest.test_case "deactivate after a reopen" `Quick deactivate_after_reopen;
        Alcotest.test_case "timed trigger after a crash" `Quick timed_trigger_after_crash;
        Alcotest.test_case "open holds no activations" `Quick open_holds_no_activations;
        Alcotest.test_case "self-touching action does not loop" `Quick action_self_touch_does_not_loop;
        Alcotest.test_case "cascades across objects" `Quick action_cascade_across_objects;
        Alcotest.test_case "timed trigger timeout" `Quick timed_trigger_timeout;
        Alcotest.test_case "timed trigger satisfied early" `Quick timed_trigger_satisfied_before_deadline;
        Alcotest.test_case "activations persist" `Quick activations_persist;
        Alcotest.test_case "parameterized conditions" `Quick trigger_params_used_in_condition;
        Alcotest.test_case "argument types checked" `Quick argument_types_checked;
      ] );
    Tutil.qsuite "triggers.props" [ prop_activation_roundtrip ];
  ]
