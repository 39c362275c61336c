(** Offline integrity checking.

    Walks every persistent structure and cross-checks them: directory
    entries must resolve to live heap records, object records must decode
    as header plus current fields and be consistent (known class, current
    version listed, a version record for every other listed version, none
    for the current one, no orphan versions), secondary index entries must point
    at live objects whose field value matches the entry, every object must
    be covered by every applicable index, and trigger activation records
    must decode with nothing left over, name a known declaring class and
    a position among its triggers, and hang on live objects whose class
    inherits that trigger (an inactive record on a dead object is a
    problem too: deleting an object removes all of its records).

    One cursor pass over the directory reads and decodes each record once;
    one over the index tree matches its entries against those the decoded
    slots call for. A page that cannot be read (a bad checksum or node
    layout, {!Ode_util.Codec.Corrupt}) is reported, not raised: it ends
    the pass that met it with a problem naming its file and page, and the
    next pass runs. The cross-checks that need a stopped pass's complete
    results (the heap record count, missing version records, index entries
    for dead objects, missing index entries) are then skipped, in one
    line that says so, rather than reported for every entry past the
    page. The check reads nothing through the store's read path,
    so it fetches no object there ([objects_fetched] stays put).

    Used by tests (especially crash-recovery tests, where it proves that
    replay reconstructed a coherent database) and available to operators via
    {!run}. Must be called outside a transaction. *)

val run : Types.db -> (unit, string list) result
(** [Ok ()] or the list of every inconsistency found, unreadable pages
    included. *)
