(* Planner statistics ('S' key): per-extent cardinalities and per-index
   equi-depth key histograms.

   `analyze` takes a full committed-state scan and produces one encoded
   snapshot; the snapshot is written through an ordinary transaction on
   the [Keys.stats] key, so WAL logging, recovery, checkpointing,
   replication and dump/import all carry it with zero new protocol.
   [Store.apply_writes] routes a replayed/committed/replicated Put of the
   key back here ([install]), which is what makes a standby's planner
   and a recovered store's planner see the same statistics the primary
   analyzed.

   Between analyzes the cardinality counters are maintained
   incrementally: every applied header create/delete bumps the class
   count and the mods-since-analyze tally ([note_create]/[note_delete],
   called from the same [Store.apply_writes] choke point). Histograms are
   not maintained incrementally: once [stale] reports that enough mods
   have accumulated, [idx_stat] stops answering and the planner prices
   its candidates with default selectivities instead.

   Drift note: after a crash, the counters reset to the last persisted
   snapshot plus whatever the WAL tail replays; creates that were
   checkpointed after the last analyze are not re-counted. That is
   acceptable for estimates — staleness, not exactness, is the contract. *)

module Codec = Ode_util.Codec
module Dist = Ode_util.Histogram.Dist
module Catalog = Ode_model.Catalog
module Schema = Ode_model.Schema
module Bptree = Ode_index.Bptree
open Types

let fresh () =
  {
    st_analyzed = false;
    st_base = 0;
    st_mods = 0;
    st_cards = Hashtbl.create 16;
    st_idx = Hashtbl.create 8;
  }

(* -- incremental maintenance (called from Store.apply_writes) ---------------- *)

let bump db key delta =
  let cls = (Keys.oid_of_header_key key).Ode_model.Oid.cls in
  let s = db.stats in
  let cur = Option.value ~default:0 (Hashtbl.find_opt s.st_cards cls) in
  Hashtbl.replace s.st_cards cls (max 0 (cur + delta));
  s.st_mods <- s.st_mods + 1

let note_create db key = bump db key 1
let note_delete db key = bump db key (-1)

(* -- snapshot encoding ------------------------------------------------------ *)

let encode_snapshot ~base ~cards ~idx =
  let b = Buffer.create 512 in
  Codec.put_u8 b 1;
  Codec.put_int b base;
  Codec.put_u32 b (List.length cards);
  List.iter
    (fun (cid, n) ->
      Codec.put_u32 b cid;
      Codec.put_int b n)
    cards;
  Codec.put_u32 b (List.length idx);
  List.iter
    (fun (iid, st) ->
      Codec.put_u32 b iid;
      Codec.put_int b st.is_total;
      Codec.put_int b st.is_distinct;
      Dist.encode b st.is_hist)
    idx;
  Buffer.contents b

(* Installing a snapshot zeroes the mods tally, including at a clean
   reopen — churn committed after the last analyze but before a restart
   is not counted against staleness (the next session's own mods are).
   Tracking it would mean rewriting the snapshot at checkpoint/close;
   noted as open in the roadmap. *)
let install db payload =
  let c = Codec.cursor payload in
  (match Codec.get_u8 c with
  | 1 -> ()
  | v -> raise (Codec.Corrupt (Printf.sprintf "stats: bad snapshot version %d" v)));
  let base = Codec.get_int c in
  let ncards = Codec.get_u32 c in
  let cards =
    List.init ncards (fun _ ->
        let cid = Codec.get_u32 c in
        let n = Codec.get_int c in
        (cid, n))
  in
  let nidx = Codec.get_u32 c in
  let idx =
    List.init nidx (fun _ ->
        let iid = Codec.get_u32 c in
        let is_total = Codec.get_int c in
        let is_distinct = Codec.get_int c in
        let is_hist = Dist.decode c in
        (iid, { is_total; is_distinct; is_hist }))
  in
  let s = db.stats in
  Hashtbl.reset s.st_cards;
  Hashtbl.reset s.st_idx;
  List.iter (fun (cid, n) -> Hashtbl.replace s.st_cards cid n) cards;
  List.iter (fun (iid, st) -> Hashtbl.replace s.st_idx iid st) idx;
  s.st_base <- base;
  s.st_mods <- 0;
  s.st_analyzed <- true

(* -- analyze (full committed-state scan) ------------------------------------ *)

(* The scan reads the committed B+trees directly: header entries verify
   liveness through the heap fetch inside [Kv.iter_prefix], index valkeys
   stream out of the index tree already in sorted order (which is exactly
   what [Dist.of_sorted] wants). Runs under no transaction — analyze
   summarizes latest-committed state, which is the state the planner's
   candidate streams start from. *)
let compute db =
  let cards =
    List.filter_map
      (fun (c : Schema.cls) ->
        let n = ref 0 in
        Kv.iter_prefix db (Keys.header_prefix_class c.Schema.id) (fun _ _ ->
            incr n;
            true);
        if !n = 0 then None else Some (c.Schema.id, !n))
      (Catalog.all db.catalog)
  in
  let base = List.fold_left (fun acc (_, n) -> acc + n) 0 cards in
  let nindexes = List.length (Catalog.indexes db.catalog) in
  let idx =
    List.init nindexes (fun iid ->
        let keys = ref [] in
        let n = ref 0 in
        Bptree.iter_prefix db.idx (Keys.index_tree_key (Keys.index_prefix ~idx_id:iid)) (fun k _ ->
            let _, valkey, _ = Keys.parse_index_tree_key k in
            keys := valkey :: !keys;
            incr n;
            true);
        let arr = Array.of_list (List.rev !keys) in
        let hist = Dist.of_sorted arr in
        (iid, { is_total = !n; is_distinct = Dist.distinct hist; is_hist = hist }))
  in
  encode_snapshot ~base ~cards ~idx

(* -- planner-facing reads --------------------------------------------------- *)

let analyzed db = db.stats.st_analyzed

(* Histograms go stale once the mods since analyze are a meaningful
   fraction of the analyzed population (or an absolute flood on a small
   one). [idx_stat] then answers nothing, so the planner prices with
   default selectivities rather than trusting distributions that no
   longer describe the data. *)
let stale db =
  let s = db.stats in
  (not s.st_analyzed) || s.st_mods > max 100 (s.st_base / 5)

let card db cls_id = Hashtbl.find_opt db.stats.st_cards cls_id
let idx_stat db idx_id = if stale db then None else Hashtbl.find_opt db.stats.st_idx idx_id

(* One-line report for the shell's `.analyze` acknowledgement. *)
let describe db =
  let s = db.stats in
  if not s.st_analyzed then "statistics: none (run .analyze)"
  else
    let nidx = Hashtbl.length s.st_idx in
    Printf.sprintf "statistics: %d objects across %d extents, %d index histogram%s, %d mods since analyze"
      s.st_base (Hashtbl.length s.st_cards) nidx
      (if nidx = 1 then "" else "s")
      s.st_mods
