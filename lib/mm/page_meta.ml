type kind = Code | Global | Stack | Heap

(* One int per page: [(owner lsl 3) lor code], 0 for an unowned page.
   Every owned page has a class, so an owned page's entry is never 0,
   the monitor's (cid 0) included. *)
type t = int array

(* [code k - 1] is the class's slot in a window table. *)
let code = function Global -> 1 | Stack -> 2 | Heap -> 3 | Code -> 4

let kind_of_code = function
  | 1 -> Global
  | 2 -> Stack
  | 3 -> Heap
  | 4 -> Code
  | n -> invalid_arg (Printf.sprintf "Page_meta: bad kind %d" n)

let create npages : t = Array.make npages 0

let check (t : t) page =
  if page < 0 || page >= Array.length t then
    invalid_arg (Printf.sprintf "Page_meta: page %d out of range" page)

let owner_id (t : t) page =
  check t page;
  let e = Array.unsafe_get t page in
  if e = 0 then -1 else e lsr 3

let kind_code (t : t) page =
  check t page;
  Array.unsafe_get t page land 7

let assign (t : t) ~page ~owner ~kind =
  check t page;
  if t.(page) <> 0 then
    invalid_arg
      (Printf.sprintf "Page_meta.assign: page %d already owned by cubicle %d" page
         (owner_id t page));
  t.(page) <- (owner lsl 3) lor code kind

let release (t : t) ~page =
  check t page;
  t.(page) <- 0

let owner t page = match owner_id t page with -1 -> None | o -> Some o
let kind t page = match kind_code t page with 0 -> None | k -> Some (kind_of_code k)

let kind_to_string = function
  | Code -> "code"
  | Global -> "global"
  | Stack -> "stack"
  | Heap -> "heap"
