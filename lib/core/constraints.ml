(* Constraint checking (paper §5).

   Constraints are boolean conditions attached to classes; an object must
   satisfy every constraint of its class, including inherited ones — this is
   what makes constraint-based specialization work (a [female : person]
   subclass adds [sex == "f"]). Checks run at transaction commit over every
   object the transaction wrote; a violation aborts the transaction
   ("Violation of a constraint will cause the transaction ... to be aborted
   and rolled back"). *)

module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
open Types

let c_constraints_checked = Ode_util.Stats.counter "constraints_checked"

(* An object whose class and superclasses declare no constraint costs no
   read: the constraint list is learnt from the catalog before the store is
   asked whether the object still exists. *)
let check_object ~reads db txn oid =
  match Store.class_of db oid with
  | None -> ()
  | Some cls -> (
      match Catalog.all_constraints db.catalog cls with
      | [] -> ()
      | constraints ->
          (* An object deleted in this transaction has nothing to satisfy. *)
          if Store.exists db txn oid then begin
            let hooks = Runtime.hooks ~reads db txn in
            List.iter
              (fun (k : Schema.constr) ->
                Ode_util.Stats.incr c_constraints_checked;
                let ok =
                  match Eval.eval hooks ~vars:[] ~this:(Some (Value.Ref oid)) k.kexpr with
                  | v -> Eval.truthy v
                  | exception Eval.Error _ -> false
                in
                if not ok then
                  raise (Constraint_violation { cls = cls.Schema.name; cname = k.kname; oid }))
              constraints
          end)

(* [reads] collects the keys the checks read, for the commit's conflict
   check: a constraint over another object holds only if that object did
   not change under this transaction's snapshot. *)
let check_txn ~reads txn =
  Ode_util.Trace.with_span ~cat:"constraints"
    ~args:[ ("touched", string_of_int (Hashtbl.length txn.touched)) ]
    "constraints.check" (fun () ->
      Hashtbl.iter (fun oid () -> check_object ~reads txn.tdb (Some txn) oid) txn.touched)
