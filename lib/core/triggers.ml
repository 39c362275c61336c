(* Triggers (paper §6).

   Triggers are declared in classes and *activated* per object; activation
   returns a trigger id usable for explicit deactivation. Two kinds:
   once-only (deactivated automatically after firing) and perpetual. Timed
   triggers carry a [within t] deadline on a logical clock: if the condition
   does not come true by the deadline, the timeout action runs instead.

   Conditions are conceptually evaluated at the end of each transaction; we
   evaluate them over the write set of the committing transaction, for the
   objects it touched. A firing only *schedules* the action: the action runs
   as its own transaction after the triggering one commits ("weak
   coupling"), so actions of an aborted transaction never run. *)

module Codec = Ode_util.Codec
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
open Types

let c_triggers_fired = Ode_util.Stats.counter "triggers_fired"
let c_triggers_evaluated = Ode_util.Stats.counter "triggers_evaluated"


let err fmt = Ode_util.Ode_error.user ("trigger error: " ^^ fmt)
let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* -- persistence of activation records ------------------------------------- *)

(* An activation record holds only what its declaration does not fix, all
   varints but the flags byte:

     oid class, oid number, declaring class id, position among that
     class's own triggers, flags (active, has-deadline), each argument by
     its declared parameter type ([Store.put_slot]), and the deadline
     (zigzag) if any.

   The tid is the 'T' key's; the names, [perpetual], the argument count
   and types are the declaration's. *)
let flag_active = 1
let flag_deadline = 2

let param_types (g : Schema.trigger) = List.map (fun (p : Schema.field) -> p.ftype) g.gparams

let encode_activation params (a : activation) =
  let b = Buffer.create 16 in
  Codec.put_varint b a.aoid.cls;
  Codec.put_varint b a.aoid.num;
  Codec.put_varint b a.tdecl;
  Codec.put_varint b a.tpos;
  Codec.put_u8 b
    ((if a.active then flag_active else 0) lor if a.deadline <> None then flag_deadline else 0);
  List.iter2 (Store.put_slot b) params a.targs;
  Option.iter (Codec.put_svarint b) a.deadline;
  Buffer.contents b

(* Raises [Codec.Corrupt] on a malformed record and on one whose
   declaration the catalog lacks. *)
let decode_activation db key s =
  let tid = Keys.parse_trigger key in
  let c = Codec.cursor s in
  let cls = Codec.get_varint c in
  let num = Codec.get_varint c in
  let tdecl = Codec.get_varint c in
  let tpos = Codec.get_varint c in
  let d, g =
    match Catalog.find_by_id db.catalog tdecl with
    | None -> corrupt "activation %d: unknown class id %d" tid tdecl
    | Some d -> (
        match List.nth_opt d.own_triggers tpos with
        | None -> corrupt "activation %d: class %s has no trigger at position %d" tid d.name tpos
        | Some g -> (d, g))
  in
  let flags = Codec.get_u8 c in
  if flags land lnot (flag_active lor flag_deadline) <> 0 then
    corrupt "activation %d: unknown flags 0x%02x" tid flags;
  let targs = List.map (fun (p : Schema.field) -> Store.get_slot c p.ftype) g.gparams in
  let deadline = if flags land flag_deadline <> 0 then Some (Codec.get_svarint c) else None in
  if not (Codec.at_end c) then corrupt "activation %d: %d trailing bytes" tid (Codec.remaining c);
  {
    tid;
    aoid = { cls; num };
    tdecl;
    tpos;
    tcls = d.name;
    tname = g.gname;
    targs;
    perpetual = g.gperpetual;
    deadline;
    active = flags land flag_active <> 0;
  }

(* The declaration an activation names. *)
let decl db (a : activation) =
  match Catalog.find_by_id db.catalog a.tdecl with
  | Some d -> List.nth_opt d.Schema.own_triggers a.tpos
  | None -> None

(* -- in-memory mirror --------------------------------------------------------- *)

let register db a =
  Hashtbl.replace db.activations a.tid a;
  let existing = Option.value (Hashtbl.find_opt db.by_oid a.aoid) ~default:[] in
  if not (List.mem a.tid existing) then Hashtbl.replace db.by_oid a.aoid (a.tid :: existing)

let unregister db tid =
  match Hashtbl.find_opt db.activations tid with
  | None -> ()
  | Some a ->
      Hashtbl.remove db.activations tid;
      let remaining =
        List.filter (fun t -> t <> tid) (Option.value (Hashtbl.find_opt db.by_oid a.aoid) ~default:[])
      in
      if remaining = [] then Hashtbl.remove db.by_oid a.aoid
      else Hashtbl.replace db.by_oid a.aoid remaining

let load_all db =
  Kv.iter_prefix db Keys.trigger_prefix (fun key payload ->
      let a = decode_activation db key payload in
      if a.active then register db a;
      true)

(* -- activation / deactivation -------------------------------------------------- *)

(* The trigger [tname] as an object of [oid]'s class sees it: the most
   derived declaration, its declaring class and its position there. *)
let find_decl db oid tname =
  match Store.class_of db oid with
  | None -> err "object %a has unknown class" Oid.pp oid
  | Some cls -> (
      match Catalog.find_trigger db.catalog cls tname with
      | Some found -> found
      | None -> err "class %s has no trigger %s" cls.Schema.name tname)

let activate txn oid tname args =
  let db = txn.tdb in
  (* Guard before the next_tid bump below: activation mutates shared meta
     state ahead of its overlay write. *)
  if txn.tro then raise Types.Read_only_txn;
  if not (Store.exists db (Some txn) oid) then err "cannot activate trigger on dead object %a" Oid.pp oid;
  let d, tpos, g = find_decl db oid tname in
  if List.length args <> List.length g.gparams then
    err "trigger %s expects %d arguments, got %d" tname (List.length g.gparams) (List.length args);
  List.iter2
    (fun (p : Schema.field) v ->
      if not (Store.conforms db p v) then
        err "trigger %s: argument %s expects %s, got %a" tname p.fname (Ode_model.Otype.to_string p.ftype)
          Value.pp v)
    g.gparams args;
  let deadline =
    match g.gwithin with
    | None -> None
    | Some e -> (
        let vars = List.map2 (fun (p : Schema.field) v -> (p.fname, v)) g.gparams args in
        match Runtime.eval db (Some txn) ~vars ~this:(Value.Ref oid) e with
        | Value.Int t -> Some (db.meta.clock + t)
        | v -> err "trigger %s: 'within' must be an int, got %a" tname Value.pp v)
  in
  let tid = db.meta.next_tid in
  db.meta.next_tid <- tid + 1;
  txn.meta_dirty <- true;
  let a =
    {
      tid;
      aoid = oid;
      tdecl = d.id;
      tpos;
      tcls = d.name;
      tname = g.gname;
      targs = args;
      perpetual = g.gperpetual;
      deadline;
      active = true;
    }
  in
  Store.write txn (Keys.trigger tid) (encode_activation (param_types g) a);
  (* Conditions are evaluated at the end of each transaction (paper §6); an
     activation whose condition already holds fires when the activating
     transaction commits, so mark the object for evaluation. *)
  Hashtbl.replace txn.touched oid ();
  tid

let deactivate txn tid =
  let db = txn.tdb in
  let key = Keys.trigger tid in
  let current =
    match Store.read db (Some txn) key with
    | Some s -> decode_activation db key s
    | None -> err "no such trigger activation %d" tid
  in
  (* A record that decoded names a declaration the catalog has. *)
  let g = Option.get (decl db current) in
  Store.write txn key (encode_activation (param_types g) { current with active = false })

(* -- commit-time evaluation --------------------------------------------------------- *)

(* The transaction's own trigger writes, digested once per commit:
   tid -> activation overrides, plus per-oid activations new in this txn.
   [overrides] then follows [evaluate]'s own writes, so that after the
   commit it holds the decoded activation of every 'T' put, and the mirror
   folds them in without decoding them again. *)
type txn_trigger_view = {
  overrides : (int, activation) Hashtbl.t;
  new_by_oid : (Oid.t, activation list) Hashtbl.t;
}

let txn_view txn =
  let db = txn.tdb in
  let view = { overrides = Hashtbl.create 8; new_by_oid = Hashtbl.create 8 } in
  Hashtbl.iter
    (fun key op ->
      if Keys.is_trigger_key key then
        match op with
        | Put payload ->
            let a = decode_activation db key payload in
            Hashtbl.replace view.overrides a.tid a;
            let committed = Option.value (Hashtbl.find_opt db.by_oid a.aoid) ~default:[] in
            if not (List.mem a.tid committed) then
              Hashtbl.replace view.new_by_oid a.aoid
                (a :: Option.value (Hashtbl.find_opt view.new_by_oid a.aoid) ~default:[])
        | Del -> ())
    txn.writes;
  view

(* Activations relevant to [oid] as this transaction sees them: committed
   state adjusted by the transaction's own trigger writes. *)
let effective_activations txn view oid =
  let db = txn.tdb in
  let committed = Option.value (Hashtbl.find_opt db.by_oid oid) ~default:[] in
  let of_committed =
    List.filter_map
      (fun tid ->
        match Hashtbl.find_opt view.overrides tid with
        | Some a -> Some a
        | None -> Hashtbl.find_opt db.activations tid)
      committed
  in
  of_committed @ List.rev (Option.value (Hashtbl.find_opt view.new_by_oid oid) ~default:[])

let condition_holds ~reads db txn (a : activation) g =
  Ode_util.Stats.incr c_triggers_evaluated;
  let vars = List.map2 (fun (p : Schema.field) v -> (p.fname, v)) g.Schema.gparams a.targs in
  match Runtime.eval ~reads db txn ~vars ~this:(Value.Ref a.aoid) g.Schema.gcond with
  | v -> ( match Eval.truthy v with b -> b | exception Eval.Error _ -> false)
  | exception Eval.Error _ -> false

(* Firing discipline. The paper: "An active trigger fires when its condition
   *becomes* true."

   - Perpetual triggers are edge-triggered: they fire only on a false→true
     transition across the committing transaction (pre-state = committed
     state, post-state = through the write set). Without this, an action
     that leaves its own condition true would fire itself forever.
   - Once-only triggers fire whenever the condition holds at an evaluation
     point (they deactivate immediately, so there is no loop to prevent),
     which also gives the useful "fires at activation if already true"
     behaviour.
   - An activation created by this very transaction has no pre-state: its
     pre-condition counts as false. *)
let should_fire ~reads db txn view (a : activation) g =
  condition_holds ~reads db (Some txn) a g
  &&
  if not a.perpetual then true
  else
    let txn_local =
      match Hashtbl.find_opt view.new_by_oid a.aoid with
      | Some news -> List.exists (fun (x : activation) -> x.tid = a.tid) news
      | None -> false
    in
    txn_local || not (condition_holds ~reads db None a g)

(* Evaluate conditions for the committing transaction; returns the firings
   and buffers the bookkeeping writes (once-only deactivation, activation
   removal for deleted objects) into the same transaction. The keys the
   conditions read go into [reads], for the commit's conflict check. *)
let evaluate ~reads txn =
  Ode_util.Trace.with_span ~cat:"trigger" "triggers.evaluate" @@ fun () ->
  let db = txn.tdb in
  let firings = ref [] in
  let view = txn_view txn in
  Hashtbl.iter
    (fun oid () ->
      match effective_activations txn view oid with
      | [] -> (* An object without activations costs no existence read. *) ()
      | acts ->
          if Store.exists db (Some txn) oid then
            List.iter
              (fun a ->
                if (a : activation).active then
                  match decl db a with
                  | Some g ->
                      if should_fire ~reads db txn view a g then begin
                        Ode_util.Stats.incr c_triggers_fired;
                        Ode_util.Trace.instant ~cat:"trigger" ~args:[ ("trigger", a.tname) ]
                          "trigger.fired";
                        firings := { f_act = a; f_kind = Fired } :: !firings;
                        if not a.perpetual then begin
                          let off = { a with active = false } in
                          Hashtbl.replace view.overrides a.tid off;
                          Store.write txn (Keys.trigger a.tid) (encode_activation (param_types g) off)
                        end
                      end
                  | None -> ())
              acts
          else
            (* The object died in this transaction: its activations go away. *)
            List.iter (fun a -> Store.remove txn (Keys.trigger a.tid)) acts)
    txn.touched;
  (List.rev !firings, view.overrides)

type decoded = (int, activation) Hashtbl.t

(* After a successful commit, or a standby's apply of a shipped one, fold
   its trigger writes into the in-memory mirror. A put [decoded] holds is
   not decoded again. *)
let sync_after_commit ?decoded db writes =
  List.iter
    (fun (key, op) ->
      if Keys.is_trigger_key key then
        match op with
        | Put payload ->
            let a =
              match Option.bind decoded (fun d -> Hashtbl.find_opt d (Keys.parse_trigger key)) with
              | Some a -> a
              | None -> decode_activation db key payload
            in
            if a.active then register db a else unregister db a.tid
        | Del -> unregister db (Keys.parse_trigger key))
    writes

(* -- timed triggers -------------------------------------------------------------------- *)

(* Activations whose deadline has passed; the caller deactivates them and
   runs the timeout actions, each in its own transaction. *)
let expired db =
  Hashtbl.fold
    (fun _ a acc ->
      match a.deadline with
      | Some d when a.active && d <= db.meta.clock -> a :: acc
      | _ -> acc)
    db.activations []
