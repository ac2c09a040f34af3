type buf = Param of int | Local of string

type stmt =
  | Alloc of { buf : string; bytes : int }
  | Call of { sym : string; ptr_args : (int * buf * int) list }
  | Direct_call of { sym : string }
  | Window_add of { win : string; buf : buf; bytes : int; standing : bool; rw : bool }
  | Window_remove of { win : string; buf : buf }
  | Window_open of { win : string; peer : string }
  | Window_forward of { win : string; peer : string }
  | Window_close of { win : string; peer : string }
  | Window_close_all of { win : string }
  | Window_destroy of { win : string }
  | Branch of stmt list list
  | Loop of stmt list

type fundecl = {
  fd_sym : string;
  fd_derefs : int list;
  fd_writes : int list;
  fd_body : stmt list;
}

type t = fundecl list

let fundecl ?(derefs = []) ?(writes = []) sym body =
  { fd_sym = sym; fd_derefs = derefs; fd_writes = writes; fd_body = body }
