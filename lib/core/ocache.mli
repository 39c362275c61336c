(** Decoded-object cache over logical KV keys.

    Caches *committed* objects decoded — one entry per object holding its
    header and current fields, and one per non-current version read — so
    the query read path ({!Store.get_header}, {!Store.get_fields},
    {!Store.get_fields_v}) skips the B+tree descent, heap fetch and decode
    on a warm hit. Sized by the
    [?object_cache] option of {!Database.open_}; capacity 0 disables it. *)

val enabled : Types.db -> bool

val find : Types.db -> string -> Types.cached option
(** Lookup by logical key; bumps the hit/miss counters when enabled. *)

val add : Types.db -> string -> Types.cached -> unit
(** Insert (evicting LRU entries beyond capacity). No-op when disabled. *)

val invalidate : Types.db -> string -> unit
(** Drop one key because a committed write touched it. Counts an
    invalidation only when the key was actually resident. *)

val clear : Types.db -> unit
(** Wholesale wipe, used at recovery/reopen. *)

val resident : Types.db -> int
(** Decoded objects currently cached (monitoring gauge). *)
