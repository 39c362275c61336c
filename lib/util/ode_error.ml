type cls = Conflict | Redirect | User | Resource | Corrupt | Internal
type t = { cls : cls; msg : string }

exception Error of t

let fail cls fmt = Format.kasprintf (fun msg -> raise (Error { cls; msg })) fmt
let user fmt = fail User fmt
let classes = [ Conflict; Redirect; User; Resource; Corrupt; Internal ]

let class_name = function
  | Conflict -> "conflict"
  | Redirect -> "redirect"
  | User -> "user"
  | Resource -> "resource"
  | Corrupt -> "corrupt"
  | Internal -> "internal"

let () =
  Printexc.register_printer (function
    | Error { cls; msg } -> Some (Printf.sprintf "Ode_error.Error(%s, %S)" (class_name cls) msg)
    | _ -> None)
