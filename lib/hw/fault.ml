type access = Read | Write | Exec
type reason = Not_present | Page_perm | Key_perm
type t = { addr : int; access : access; key : int; reason : reason }

exception Violation of t * string

let access_to_string = function Read -> "read" | Write -> "write" | Exec -> "exec"

let reason_to_string = function
  | Not_present -> "page not present"
  | Page_perm -> "page permission"
  | Key_perm -> "protection key"

let pp fmt t =
  Format.fprintf fmt "fault(%s at 0x%x, key %d: %s)" (access_to_string t.access)
    t.addr t.key (reason_to_string t.reason)

let violation t = raise (Violation (t, "?"))
