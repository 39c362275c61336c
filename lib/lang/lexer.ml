type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string
  | PUNCT of string
  | EOF

type pos = { offset : int; line : int; col : int }

(* Line and column (both from 1, the column in bytes) of [offset] in [src]. *)
let pos_at src offset =
  let offset = max 0 (min offset (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { offset; line = !line; col = offset - !bol + 1 }

exception Lex_error of string * pos

let keywords =
  [
    "class"; "create"; "cluster"; "index"; "on"; "pnew"; "pdelete"; "newversion";
    "forall"; "in"; "suchthat"; "by"; "desc"; "asc"; "print"; "if"; "else";
    "method"; "constraint"; "trigger"; "perpetual"; "within"; "timeout";
    "activate"; "deactivate"; "insert"; "into"; "remove"; "from"; "return";
    "int"; "float"; "bool"; "string"; "ref"; "set"; "list";
    "true"; "false"; "null"; "this"; "is"; "and"; "or"; "not";
    "begin"; "commit"; "abort"; "show"; "classes"; "explain"; "advance"; "time";
    "stats"; "verify"; "dump"; "load"; "analyze";
  ]

let is_kw s = List.mem s keywords
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Multi-character punctuation first so ":=" beats ":". *)
let puncts =
  [ "==>"; ":="; "=="; "!="; "<="; ">="; "&&"; "||";
    "{"; "}"; "("; ")"; "["; "]"; ";"; ","; ":"; "."; "*";
    "+"; "-"; "/"; "%"; "<"; ">"; "="; "!" ]

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit tok off = out := (tok, off) :: !out in
  let rec skip_ws i =
    if i >= n then i
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
          let rec eol j = if j >= n || src.[j] = '\n' then j else eol (j + 1) in
          skip_ws (eol (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
          let rec close j =
            if j + 1 >= n then raise (Lex_error ("unterminated comment", pos_at src i))
            else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
            else close (j + 1)
          in
          skip_ws (close (i + 2))
      | _ -> i
  in
  let lex_string i =
    let b = Buffer.create 16 in
    let rec go j =
      if j >= n then raise (Lex_error ("unterminated string", pos_at src i))
      else
        match src.[j] with
        | '"' -> (Buffer.contents b, j + 1)
        | '\\' when j + 1 < n ->
            let c =
              match src.[j + 1] with
              | 'n' -> '\n'
              | 't' -> '\t'
              | '\\' -> '\\'
              | '"' -> '"'
              | c -> c
            in
            Buffer.add_char b c;
            go (j + 2)
        | c ->
            Buffer.add_char b c;
            go (j + 1)
    in
    go i
  in
  (* The literal src.[i..j-1], which [conv] may find out of range. *)
  let number conv i j =
    let text = String.sub src i (j - i) in
    match conv text with
    | Some v -> v
    | None -> raise (Lex_error ("bad number literal " ^ text, pos_at src i))
  in
  let rec loop i =
    let i = skip_ws i in
    if i >= n then emit EOF i
    else
      let c = src.[i] in
      if is_ident_start c then begin
        let rec stop j = if j < n && is_ident_char src.[j] then stop (j + 1) else j in
        let j = stop i in
        let word = String.sub src i (j - i) in
        emit (if is_kw word then KW word else IDENT word) i;
        loop j
      end
      else if is_digit c then begin
        let rec stop j = if j < n && is_digit src.[j] then stop (j + 1) else j in
        let j = stop i in
        if j < n && src.[j] = '.' && j + 1 < n && is_digit src.[j + 1] then begin
          let k = stop (j + 1) in
          (* optional exponent *)
          let k =
            if k < n && (src.[k] = 'e' || src.[k] = 'E') then begin
              let k1 = if k + 1 < n && (src.[k + 1] = '+' || src.[k + 1] = '-') then k + 2 else k + 1 in
              stop k1
            end
            else k
          in
          emit (FLOAT (number float_of_string_opt i k)) i;
          loop k
        end
        else begin
          emit (INT (number int_of_string_opt i j)) i;
          loop j
        end
      end
      else if c = '"' then begin
        let s, j = lex_string (i + 1) in
        emit (STRING s) i;
        loop j
      end
      else
        let rec try_punct = function
          | [] -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, pos_at src i))
          | p :: rest ->
              let l = String.length p in
              if i + l <= n && String.sub src i l = p then begin
                emit (PUNCT p) i;
                loop (i + l)
              end
              else try_punct rest
        in
        try_punct puncts
  in
  loop 0;
  List.rev !out

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT n -> Format.fprintf ppf "int %d" n
  | FLOAT f -> Format.fprintf ppf "float %g" f
  | STRING s -> Format.fprintf ppf "string %S" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | PUNCT s -> Format.fprintf ppf "%S" s
  | EOF -> Format.fprintf ppf "end of input"
