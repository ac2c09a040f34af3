open Cubicle

let memcpy_fn ctx (args : int array) =
  Api.memcpy ctx ~dst:args.(0) ~src:args.(1) ~len:args.(2);
  args.(0)

let memset_fn ctx (args : int array) =
  Api.memset ctx args.(0) args.(1) (Char.chr (args.(2) land 0xFF));
  args.(0)

let memcmp_fn ctx (args : int array) =
  let a = Api.read_bytes ctx args.(0) args.(2) in
  let b = Api.read_bytes ctx args.(1) args.(2) in
  compare a b

let strnlen_fn ctx (args : int array) =
  let p = args.(0) and maxlen = args.(1) in
  let rec scan i = if i >= maxlen || Api.read_u8 ctx (p + i) = 0 then i else scan (i + 1) in
  scan 0

(* CubiCheck summaries: shared code runs with the caller's privileges,
   so the declared dereferences are attributed to whichever component
   forwards a pointer here. *)
let component () =
  Builder.component "LIBC" ~code_ops:512 ~heap_pages:2 ~stack_pages:0
    ~exports:
      [
        Builder.export ~derefs:[ 0; 1 ] ~writes:[ 0 ] "memcpy" memcpy_fn [];
        Builder.export ~derefs:[ 0 ] ~writes:[ 0 ] "memset" memset_fn [];
        Builder.export ~derefs:[ 0; 1 ] "memcmp" memcmp_fn [];
        Builder.export ~derefs:[ 0 ] "strnlen" strnlen_fn [];
      ]
