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

(* An activation record holds only what its key and its declaration do
   not fix, all varints but the flags byte:

     declaring class id, position among that class's own triggers, flags
     (active, has-deadline), each argument by its declared parameter type
     ([Store.put_slot]), and the deadline (zigzag) if any.

   The object and the tid are the 'T' key's; the names, [perpetual], the
   argument count and types are the declaration's. *)
let flag_active = 1
let flag_deadline = 2

let param_types (g : Schema.trigger) = List.map (fun (p : Schema.field) -> p.ftype) g.gparams

let encode_activation params (a : activation) =
  let b = Buffer.create 8 in
  Codec.put_varint b a.tdecl;
  Codec.put_varint b a.tpos;
  Codec.put_u8 b
    ((if a.active then flag_active else 0) lor if a.deadline <> None then flag_deadline else 0);
  List.iter2 (Store.put_slot b) params a.targs;
  Option.iter (Codec.put_svarint b) a.deadline;
  Buffer.contents b

(* Raises [Codec.Corrupt] on a malformed key or record and on one whose
   declaration the catalog lacks. *)
let decode_activation db key s =
  let aoid, tid = Keys.parse_trigger key in
  let c = Codec.cursor s in
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
    aoid;
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

(* The committed activation records of [oid], in tid order: one prefix
   lookup in the directory. *)
let committed db oid =
  let acts = ref [] in
  Kv.iter_prefix db (Keys.triggers_of oid) (fun key payload ->
      acts := decode_activation db key payload :: !acts;
      true);
  List.rev !acts

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
  Store.write txn (Keys.trigger oid tid) (encode_activation (param_types g) a);
  (* Conditions are evaluated at the end of each transaction (paper §6); an
     activation whose condition already holds fires when the activating
     transaction commits, so mark the object for evaluation. *)
  Hashtbl.replace txn.touched oid ();
  tid

(* Write [a]'s record back inactive. *)
let retire txn (a : activation) =
  (* A record that decoded names a declaration the catalog has. *)
  let g = Option.get (decl txn.tdb a) in
  Store.write txn (Keys.trigger a.aoid a.tid) (encode_activation (param_types g) { a with active = false })

(* The key of activation [tid]: among the transaction's own writes, else
   by one pass over the committed 'T' range, reading keys only. *)
let find_key txn tid =
  let is_tid key = Keys.is_trigger_key key && snd (Keys.parse_trigger key) = tid in
  match Hashtbl.fold (fun key _ found -> if is_tid key then Some key else found) txn.writes None with
  | Some _ as own -> own
  | None ->
      let found = ref None in
      Kv.iter_prefix_entries txn.tdb Keys.trigger_prefix (fun key _ ->
          if is_tid key then found := Some key;
          !found = None);
      !found

let deactivate txn tid =
  let db = txn.tdb in
  let current key = Option.map (decode_activation db key) (Store.read db (Some txn) key) in
  match Option.bind (find_key txn tid) current with
  | Some a -> retire txn a
  | None -> err "no such trigger activation %d" tid

(* -- commit-time evaluation --------------------------------------------------------- *)

(* The transaction's own trigger writes, digested once per commit: per
   object, the activations it put. Before [evaluate] a transaction only
   puts 'T' records (activate, deactivate); only [evaluate] removes any. *)
let txn_view txn =
  let view = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key op ->
      match op with
      | Put payload when Keys.is_trigger_key key ->
          let a = decode_activation txn.tdb key payload in
          Hashtbl.replace view a.aoid (a :: Option.value (Hashtbl.find_opt view a.aoid) ~default:[])
      | _ -> ())
    txn.writes;
  view

(* [oid]'s activations as this transaction sees them, each with whether
   the transaction made it: the committed records in tid order, as the
   transaction's own writes leave them, then its new ones in tid order.
   Reading the committed records is one directory lookup, which an object
   the transaction created skips: it has none. *)
let effective txn view ~created oid =
  let own = Option.value (Hashtbl.find_opt view oid) ~default:[] in
  let committed = if created oid then [] else committed txn.tdb oid in
  let same (a : activation) (b : activation) = a.tid = b.tid in
  let news = List.filter (fun a -> not (List.exists (same a) committed)) own in
  List.map (fun a -> (Option.value (List.find_opt (same a) own) ~default:a, false)) committed
  @ List.map (fun a -> (a, true)) (List.sort (fun (a : activation) b -> Int.compare a.tid b.tid) news)

(* Whether an object of [cls] can carry activations at all. *)
let declares_triggers db cls =
  List.exists (fun (c : Schema.cls) -> c.own_triggers <> []) (Catalog.lineage db.catalog cls)

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
   - An activation created by this very transaction ([local]) has no
     pre-state: its pre-condition counts as false. *)
let should_fire ~reads db txn ~local (a : activation) g =
  condition_holds ~reads db (Some txn) a g
  && ((not a.perpetual) || local || not (condition_holds ~reads db None a g))

(* Evaluate conditions for the committing transaction; returns the firings
   and buffers the bookkeeping writes (once-only deactivation, removal of
   every activation record of a deleted object) into the same
   transaction. The keys the conditions read go into [reads], for the
   commit's conflict check. Only touched objects whose class lineage
   declares a trigger can carry activations; a commit that touches none
   reads and digests nothing here. *)
let evaluate ~reads txn =
  Ode_util.Trace.with_span ~cat:"trigger" "triggers.evaluate" @@ fun () ->
  let db = txn.tdb in
  let candidates =
    Hashtbl.fold
      (fun oid () acc ->
        match Store.class_of db oid with
        | Some cls when declares_triggers db cls -> oid :: acc
        | _ -> acc)
      txn.touched []
  in
  if candidates = [] then []
  else begin
    let firings = ref [] in
    let view = txn_view txn in
    let created = Hashtbl.create 16 in
    List.iter (fun oid -> Hashtbl.replace created oid ()) txn.created;
    List.iter
      (fun oid ->
        match effective txn view ~created:(Hashtbl.mem created) oid with
        | [] -> (* An object without activations costs no existence read. *) ()
        | acts ->
            if Store.exists db (Some txn) oid then
              List.iter
                (fun ((a : activation), local) ->
                  if a.active then
                    match decl db a with
                    | Some g ->
                        if should_fire ~reads db txn ~local a g then begin
                          Ode_util.Stats.incr c_triggers_fired;
                          Ode_util.Trace.instant ~cat:"trigger" ~args:[ ("trigger", a.tname) ]
                            "trigger.fired";
                          firings := { f_act = a; f_kind = Fired } :: !firings;
                          if not a.perpetual then retire txn a
                        end
                    | None -> ())
                acts
            else
              (* The object died in this transaction: every activation
                 record under it goes, inactive ones included. *)
              List.iter (fun ((a : activation), _) -> Store.remove txn (Keys.trigger a.aoid a.tid)) acts)
      (List.rev candidates);
    List.rev !firings
  end

(* -- timed triggers -------------------------------------------------------------------- *)

(* Active activations whose deadline has passed, by one pass over the
   committed 'T' range; the caller retires them and runs the timeout
   actions, each in its own transaction. *)
let expired db =
  let acc = ref [] in
  Kv.iter_prefix db Keys.trigger_prefix (fun key payload ->
      let a = decode_activation db key payload in
      (match a.deadline with Some d when a.active && d <= db.meta.clock -> acc := a :: !acc | _ -> ());
      true);
  !acc
