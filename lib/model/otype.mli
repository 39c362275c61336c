(** The O++ type system at the schema level. *)

type t =
  | TInt
  | TFloat
  | TBool
  | TString
  | TRef of string   (** reference to a persistent object of a class *)
  | TSet of t
  | TList of t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_ast : Ode_lang.Ast.type_expr -> t
val to_ast : t -> Ode_lang.Ast.type_expr

val default_value : t -> Value.t
(** The value a field takes when an object is created without initializing
    it: 0, 0.0, false, "", null, the empty set/list. *)

val conforms : ?subclass:(sub:string -> super:string -> bool) ->
  t -> Value.t -> class_of:(Oid.t -> string option) -> bool
(** Structural conformance of a value to a type. [Null] conforms to [TRef]
    only. Reference targets are checked against the class hierarchy via
    [class_of] and [subclass] (absent means exact-name matching); a
    reference with a negative object or version number conforms to
    nothing. *)

val indexable : t -> bool
(** Whether a secondary index can be built on a field of this type. *)
