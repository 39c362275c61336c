(* MVCC version chains + snapshot registry. See mvcc.mli for the model.

   A database is used from one domain, so nothing here takes a lock. Every
   committed read first checks whether any chain exists at all, so a store
   with no concurrent snapshots (the common case: autocommitted statements,
   a lone embedded program) pays one length check per read and nothing
   else.

   Invariant relied on for conflict detection and visibility: a commit is
   recorded into chains whenever any other snapshot is live at commit time.
   A snapshot's read timestamp is captured at begin and commit timestamps
   only grow, so every commit a snapshot cannot see was recorded while that
   snapshot was registered — a missing chain therefore always means "the
   snapshot sees the current committed value". *)

type version = { v_ts : int; v_data : string option }

type t = {
  chains : (string, version list) Hashtbl.t; (* newest-first, never [] *)
  snaps : (int, int) Hashtbl.t; (* token -> read_ts *)
  mutable next_token : int;
  mutable floor : int; (* highest commit ts seen *)
  mutable entries : int; (* total chain entries *)
  mutable commits_since_gc : int;
  mutable reclaimed : int;
}

type visibility = Latest | Older of string option

let create () =
  {
    chains = Hashtbl.create 64;
    snaps = Hashtbl.create 8;
    next_token = 1;
    floor = 0;
    entries = 0;
    commits_since_gc = 0;
    reclaimed = 0;
  }

let empty t = Hashtbl.length t.chains = 0

(* -- GC ------------------------------------------------------------------- *)

let oldest_snapshot t = Hashtbl.fold (fun _ ts acc ->
    match acc with None -> Some ts | Some m -> Some (min m ts)) t.snaps None

(* Trim one chain against horizon [h]: keep every entry a snapshot at or
   after [h] could still need — all entries newer than [h] plus the first
   (newest) one at or below it. A chain whose head is at or below [h] is
   invisible to every live snapshot ([Latest] everywhere) and goes away. *)
let gc_all t =
  let removed = ref 0 in
  (match oldest_snapshot t with
  | None ->
      removed := t.entries;
      Hashtbl.reset t.chains
  | Some h ->
      Hashtbl.filter_map_inplace
        (fun _ chain ->
          match chain with
          | { v_ts; _ } :: _ when v_ts <= h ->
              removed := !removed + List.length chain;
              None
          | chain ->
              let rec keep = function
                | [] -> []
                | ({ v_ts; _ } as v) :: rest ->
                    if v_ts > h then v :: keep rest
                    else begin
                      removed := !removed + List.length rest;
                      [ v ]
                    end
              in
              Some (keep chain))
        t.chains);
  t.entries <- t.entries - !removed;
  t.reclaimed <- t.reclaimed + !removed;
  t.commits_since_gc <- 0

let maybe_gc t =
  if t.entries > 0 && (t.commits_since_gc >= 64 || t.entries - Hashtbl.length t.chains >= 4096)
  then gc_all t

let gc t = if not (empty t) then gc_all t

(* -- snapshots ------------------------------------------------------------ *)

let snapshot t ~read_ts =
  let tok = t.next_token in
  t.next_token <- tok + 1;
  Hashtbl.replace t.snaps tok read_ts;
  tok

let release t tok =
  Hashtbl.remove t.snaps tok;
  if Hashtbl.length t.snaps = 0 && t.entries > 0 then gc_all t

let live_snapshots t = Hashtbl.length t.snaps

(* -- reads ---------------------------------------------------------------- *)

let read t ~read_ts key =
  if empty t then Latest
  else
    match Hashtbl.find_opt t.chains key with
    | None -> Latest
    | Some ({ v_ts; _ } :: _) when v_ts <= read_ts -> Latest
    | Some chain -> (
        (* The head is invisible: surface the newest entry the snapshot
           can see. The base entry has ts 0, so the search always lands
           (every live snapshot postdates chain creation). *)
        match List.find_opt (fun v -> v.v_ts <= read_ts) chain with
        | Some v -> Older v.v_data
        | None -> Older None)

let keys_matching t pred =
  if empty t then []
  else
    List.sort String.compare
      (Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) t.chains [])

(* -- commit --------------------------------------------------------------- *)

let conflict t ~read_ts key =
  (not (empty t))
  && match Hashtbl.find_opt t.chains key with Some ({ v_ts; _ } :: _) -> v_ts > read_ts | _ -> false

let commit t ~ts ~except ~pre ~versioned writes =
  if ts > t.floor then t.floor <- ts;
  t.commits_since_gc <- t.commits_since_gc + 1;
  let need = Hashtbl.fold (fun tok _ acc -> acc || tok <> except) t.snaps false in
  if need then
    Array.iter
      (fun (key, (op : Ode_storage.Wal.op)) ->
        if versioned key then begin
          let v = { v_ts = ts; v_data = (match op with Put s -> Some s | Del -> None) } in
          match Hashtbl.find_opt t.chains key with
          | Some chain ->
              Hashtbl.replace t.chains key (v :: chain);
              t.entries <- t.entries + 1
          | None ->
              Hashtbl.replace t.chains key [ v; { v_ts = 0; v_data = pre key } ];
              t.entries <- t.entries + 2
        end)
      writes;
  maybe_gc t

(* -- gauges --------------------------------------------------------------- *)

let chain_count t = Hashtbl.length t.chains
let dead_versions t = max 0 (t.entries - Hashtbl.length t.chains)
let reclaimed_total t = t.reclaimed
