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

    Each tree is read in one walk, its structural check
    ({!Ode_index.Bptree.check}), which hands every leaf entry to the
    record checks: each node and each record is read once. What the check holds
    does not grow with the objects: a live bit per allocated object
    number (a bitset per class, sized from the class's next number; a
    key naming a number past it, which only damage writes, is kept on a
    list of its own), a memo per class, and four tallies. The directory
    pass adds each version record the headers owe (every listed version
    but the current one) and each index entry the objects' current
    fields owe to one tally each; the passes add each version record and
    index entry of a live object they meet to the other two. A tally is
    a count and a sum, modulo 2^63, of 63-bit key fingerprints (a
    splitmix64-style mix of the key's fields). Equal pairs mean no
    missing, orphan, duplicate-current or stale record or entry; when a
    pair differs, and only then, a naming walk reads the range again
    with point probes and reports each wrong key by name. For accidental
    damage, the chance that a pair still agrees is about 2^-63; the
    fingerprints are not keyed, so damage made to fool the check could.

    A page that cannot be read (a bad checksum or node
    layout, {!Ode_util.Codec.Corrupt}) is reported, not raised: it ends
    the pass that met it with a problem naming its file and page, and the
    next pass runs. So does a structural fault the walk meets mid-way (keys
    out of order, a broken leaf link), named with its tree; one found once
    the walk is complete (a wrong count, an unreachable page) leaves the
    pass whole. The cross-checks that need a stopped pass's complete
    results (the heap record count, version records, index entries for
    dead objects, missing or stale index entries) are then skipped, in
    one line that says so, rather than reported for every entry past the
    page. The check reads nothing through the store's read path, so it
    fetches no object there ([objects_fetched] stays put), and writes
    nothing.

    Used by tests (especially crash-recovery tests, where it proves that
    replay reconstructed a coherent database) and available to operators via
    {!run}. Must be called outside a transaction. *)

val run : Types.db -> (unit, string list) result
(** [Ok ()] or the list of every inconsistency found, unreadable pages
    included. *)
