(** Object storage through the transactional overlay.

    All reads go write-set-first, so a transaction sees its own effects; all
    mutations are buffered in the write set and hit the disk structures only
    at commit (deferred apply). {!apply_writes} is the single routine that
    moves a transaction's write set into the committed structures — commit,
    crash recovery and standby apply all call it with one transaction at a
    time, which is what makes recovery trivially correct. It takes the set
    in key order, so each B+tree takes its puts and deletes as one
    {!Ode_index.Bptree.apply_sorted} batch: one descent and one leaf write
    per leaf run rather than per key.

    Objects: one record per object, under its 'H' key, holds the current
    version number, the version list and the current version's fields, so
    reading a current object (paper §4's generic reference) is one
    directory probe and one heap fetch. Records are described by the
    schema: fields are stored as slots in the class's layout
    ({!Ode_model.Catalog.layout}), with no names and no value tags, each
    by its field's declared type ({!put_slot}), and the class is the one
    the oid in the key names. Each non-current version's fields live in a
    'V' record of their own: {!new_version} moves the old
    current into one, and deleting the current version promotes the newest
    remaining one back into the header record. An unversioned object
    simply has one version, 0, and no 'V' record (persistence and
    versioning compose, paper §4: "all persistent objects can have
    versions"). *)

open Types

type header = Types.header = {
  hcurrent : int;
  hversions : int list;  (** newest-first *)
}

val encode_object : db -> Ode_model.Oid.t -> header -> Ode_model.Value.t array -> string
(** The 'H' record of [oid]: the header, one byte (0) for an object never
    versioned, else [varint (count + 1)], [varint hcurrent] and a [varint]
    per version (newest first); then one {!put_slot} per slot of the
    class's layout, all written into one string of the record's size.
    Raises [Invalid_argument] when the slot count is not the layout's or
    a slot does not hold its field's type. *)

val encode_version : db -> Ode_model.Oid.t -> Ode_model.Value.t array -> string
(** A 'V' record: the slots alone. *)

val decode_object : db -> Ode_model.Oid.t -> string -> header * Ode_model.Value.t array
(** Decode the 'H' record of [oid] against its class's layout: the header
    and the current version's slots. Raises {!Ode_util.Codec.Corrupt} on an
    unknown class, a short or malformed record or trailing bytes. *)

val decode_version : db -> Ode_model.Oid.t -> string -> Ode_model.Value.t array
(** Decode a 'V' record of [oid], with the same checks. *)

val put_slot : Buffer.t -> Ode_model.Otype.t -> Ode_model.Value.t -> unit
(** One value by its declared type, with no tag: an int as a zigzag
    varint, a bool as a byte, a string as a varint length and its bytes,
    a float as a discriminator byte (0: 8-byte IEEE image, 1: an [Int] as a
    zigzag varint), a ref as a discriminator byte (0 null, 1 ref, 2 vref)
    then varint class, number and version, a set or list as a varint
    count and its elements. Raises [Invalid_argument] on a value that does
    not have the type's shape. *)

val get_slot : Ode_util.Codec.cursor -> Ode_model.Otype.t -> Ode_model.Value.t
(** Reads what {!put_slot} writes for the same type; raises
    {!Ode_util.Codec.Corrupt} on a bad discriminator or bool byte, a
    truncated or overlong varint, or a count past the end. *)

val named_fields : db -> Ode_model.Oid.t -> Ode_model.Value.t array -> (string * Ode_model.Value.t) list
(** Slots of [oid]'s class paired with their field names. *)

(** {1 Raw overlay access} *)

val read_ts_of : txn option -> int
(** The snapshot a read resolves against: the transaction's read timestamp,
    or [max_int] ("latest committed") when no transaction is given. *)

val read : db -> txn option -> string -> string option

type view =
  | Here of string option  (** the transaction's own write, or a version chain's image *)
  | Committed  (** whatever the committed store holds *)

val view : db -> txn option -> string -> view
(** Where a read of the key resolves, without reading the committed
    store: a scan that already holds the key's directory entry reads it
    from there. *)

val write : txn -> string -> string -> unit
val remove : txn -> string -> unit

(** {1 Reading objects} *)

(** Reads consult the write overlay first, then the MVCC version chains
    (a key committed past the transaction's snapshot resolves to the
    version the snapshot can see), then the committed KV, and decode from
    the record's bytes what they need; nothing decoded is kept. The
    [objects_fetched] counter counts the records read for their fields. *)

val get_header : db -> txn option -> Ode_model.Oid.t -> header option
val exists : db -> txn option -> Ode_model.Oid.t -> bool
val class_of : db -> Ode_model.Oid.t -> Ode_model.Schema.cls option
(** From the oid alone; does not check liveness. *)

val get_fields : db -> txn option -> Ode_model.Oid.t -> (string * Ode_model.Value.t) list option
(** Fields of the current version, named (built from the slots). *)

val get_fields_v :
  db -> txn option -> Ode_model.Oid.vref -> (string * Ode_model.Value.t) list option

val get_field : db -> txn option -> Ode_model.Oid.t -> string -> Ode_model.Value.t option
val get_field_v : db -> txn option -> Ode_model.Oid.vref -> string -> Ode_model.Value.t option
(** One field, found through the slot table of the oid's class. *)

(** {1 Rows: records read in place}

    The query executor fetches each candidate's 'H' record once and reads
    the fields its predicates and its loop body ask for straight from
    those bytes, skipping the slots in front of each, with no decoded
    copy. *)

type row = {
  oid : Ode_model.Oid.t;
  data : string;  (** the 'H' record *)
  slots_at : int;  (** offset of slot 0, past the header *)
  wcount : int;  (** the transaction's write count at the fetch *)
}

val row : txn option -> Ode_model.Oid.t -> string -> row
(** [row txn oid data]: the record [data] of [oid], as [txn] read it. *)

val fetch : db -> txn option -> Ode_model.Oid.t -> row option
(** The live object as the transaction reads it, in one directory lookup. *)

val field_reader : db -> txn option -> string -> row -> Ode_model.Value.t
(** [field_reader db txn f] reads field [f] of the rows [txn] fetched. The
    slot is resolved once per class, by that class's own layout, at the
    first row of it. A row the transaction wrote after fetching it is read
    again through the overlay. Raises {!Ode_model.Eval.Error} when the
    row's class has no field [f]. *)

val current : txn option -> row -> bool
(** Whether the transaction has written nothing since it fetched the row,
    so that the row's bytes are still its view of the object. *)

val row_field : db -> row -> string -> Ode_model.Value.t option
(** One field of a {!current} row, resolved through its class's layout;
    [None] when the class has no such field. *)

val row_fields : db -> txn option -> row -> (string * Ode_model.Value.t) list option
(** Every field of a row's object, named: decoded from the row's record
    while {!current}, else read through the overlay ([None] once the
    transaction has deleted it). *)

val conforms : db -> Ode_model.Schema.field -> Ode_model.Value.t -> bool
(** Whether a value may be stored in the field (the check {!create} and
    {!update_fields} make). *)

val next_num : db -> int -> int
(** The object number {!create} gives the class of this id next: every
    number it gave before is below it. *)

(** {1 Mutating objects (buffered in the transaction)} *)

val create : txn -> Ode_model.Schema.cls -> (string * Ode_model.Value.t) list -> Ode_model.Oid.t
(** Allocate an oid, fill unspecified fields with type defaults, check value
    conformance (raises a [User] {!Ode_util.Ode_error.Error} on a mismatch or
    when the cluster does not exist). *)

val update_fields : txn -> Ode_model.Oid.t -> (string * Ode_model.Value.t) list -> unit
(** Partial update of the current version. *)

val delete_object : txn -> Ode_model.Oid.t -> unit
(** Remove the object and all its versions (pdelete). *)

val new_version : txn -> Ode_model.Oid.t -> int
(** Copy the current version as a new one, which becomes current; returns
    the new version number. *)

val delete_version : txn -> Ode_model.Oid.vref -> unit
(** Delete one version. Deleting the current version promotes its
    predecessor; deleting the last remaining version deletes the object. *)

(** {1 Index plumbing} *)

val index_ids : db -> cls:string -> field:string -> int option

val index_put : txn -> idx_id:int -> value:Ode_model.Value.t -> oid:Ode_model.Oid.t -> unit
(** Enter [oid] under [value] in index [idx_id], in the overlay. *)

(** {1 Commit/recovery} *)

val apply_writes : db -> (string * op) array -> unit
(** Apply one committed transaction's write set, each key at most once and
    in key order (as a commit sorts it and its WAL frame keeps it), to the
    committed structures: index entries to the index tree, the rest to the
    KV, puts and deletes as one sorted batch per tree. The array is read in
    place: only the index tree's batch is built from it. Idempotent. *)

val committed_image : db -> string -> string option
(** The key's current committed value (index entries: [Some ""] when the
    entry exists) — the pre-image the MVCC layer records before a commit
    overwrites it. *)
