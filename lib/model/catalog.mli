(** The class registry and hierarchy resolution.

    Classes are defined once and never redefined (the paper leaves schema
    evolution out of scope, and so do we). The catalog computes the class
    linearization used for field layout, gathers inherited constraints and
    triggers, resolves method dispatch, and answers subclass queries for
    deep-extent iteration and the [is] operator.

    The catalog also records which clusters exist and which secondary
    indexes were created, and serializes the whole schema (as surface
    syntax) for persistence. *)

type t

val create : unit -> t

val define : t -> Ode_lang.Ast.class_decl -> Schema.cls
(** Add a class. Raises a [User] {!Ode_util.Ode_error.Error} on: duplicate
    class name, unknown parent, a field name inherited from two unrelated
    classes or clashing with an own field, or an unknown class referenced
    by a field type. *)

val find : t -> string -> Schema.cls option
val find_exn : t -> string -> Schema.cls
val find_by_id : t -> int -> Schema.cls option
val all : t -> Schema.cls list
(** All classes in definition order. *)

val lineage : t -> Schema.cls -> Schema.cls list
(** Ancestors (base classes first, each once) ending with the class itself;
    this is the field layout order. *)

val all_fields : t -> Schema.cls -> Schema.field list
(** Inherited fields first, own fields last. *)

(** {1 Record layout} *)

type layout = private {
  fields : Schema.field array;  (** [all_fields], slot by slot *)
  slots : (string, int) Hashtbl.t;  (** field name -> slot *)
}
(** How an object record of one class lays out its fields: one value per
    slot in [all_fields] order, with no names. Under multiple inheritance
    a base field can sit at different slots in different subclasses, so
    a field reference resolves per class. *)

val layout : t -> Schema.cls -> layout
(** Built once per class and memoized. *)

val layout_of_id : t -> int -> layout option
(** The layout of a defined class, by class id (the class an oid names). *)

val slot : layout -> string -> int option

val all_constraints : t -> Schema.cls -> Schema.constr list
(** Every constraint an object of this class must satisfy, including
    inherited ones (paper §5: constraint-based specialization). *)

val find_method : t -> Schema.cls -> string -> Schema.meth option
(** Most-derived definition wins (dynamic dispatch). *)

val find_trigger : t -> Schema.cls -> string -> (Schema.cls * int * Schema.trigger) option
(** Most-derived declaration wins, as for methods: the class declaring
    it, its position among that class's [own_triggers], and the
    declaration. *)

val is_subclass : t -> sub:string -> super:string -> bool
(** Reflexive and transitive. *)

val subclasses : t -> string -> string list
(** The class and all its (transitive) subclasses, in definition order:
    the classes whose clusters a deep-extent scan visits (paper §3.1.1). *)

(** {1 Cluster and index metadata} *)

val create_cluster : t -> string -> unit
(** Raises a [User] {!Ode_util.Ode_error.Error} if the class is unknown or
    the cluster exists. *)

val has_cluster : t -> Schema.cls -> bool

val add_index : t -> cls:string -> field:string -> unit
(** Raises a [User] {!Ode_util.Ode_error.Error} if unknown class/field,
    non-indexable field type, or duplicate index. *)

val indexes : t -> (string * string) list
val class_indexes : t -> Schema.cls -> (int * string * int) list
(** The indexes an object of the class enters, as (index id, field name,
    slot) triples in index-id order: those declared on the class or on an
    ancestor, the id being the index's position in {!indexes}. Memoized
    until the next {!add_index}. *)

val indexes_on : t -> string -> string list
(** Indexed field names of a class (indexes declared on the class itself or
    inherited from an ancestor). *)

(** {1 Persistence} *)

val encode : t -> string
val decode : string -> t
