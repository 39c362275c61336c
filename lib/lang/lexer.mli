(** Hand-written lexer for the O++-like surface language. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string        (** keywords: class, forall, suchthat, by, ... *)
  | PUNCT of string     (** operators and delimiters: {, }, :=, ==>, ... *)
  | EOF

type pos = { offset : int; line : int; col : int }
(** A source position: byte [offset] from the start, and the [line] and
    byte column [col] it falls on, both counted from 1. *)

val pos_at : string -> int -> pos
(** [pos_at src offset] is the position of [offset] in [src]. *)

exception Lex_error of string * pos
(** message and position *)

val keywords : string list

val tokenize : string -> (token * int) list
(** Token stream with byte offsets; always ends with [EOF]. Comments are
    [//] to end of line and [/* ... */]. *)

val pp_token : Format.formatter -> token -> unit
