type kind = Code | Global | Stack | Heap

type t = { owners : int array; kinds : int array }

let kind_to_int = function Code -> 1 | Global -> 2 | Stack -> 3 | Heap -> 4
let kind_of_int = function
  | 1 -> Code
  | 2 -> Global
  | 3 -> Stack
  | 4 -> Heap
  | n -> invalid_arg (Printf.sprintf "Page_meta: bad kind %d" n)

let create npages = { owners = Array.make npages (-1); kinds = Array.make npages 0 }

let check t page =
  if page < 0 || page >= Array.length t.owners then
    invalid_arg (Printf.sprintf "Page_meta: page %d out of range" page)

let assign t ~page ~owner ~kind =
  check t page;
  if t.owners.(page) >= 0 then
    invalid_arg
      (Printf.sprintf "Page_meta.assign: page %d already owned by cubicle %d" page
         t.owners.(page));
  t.owners.(page) <- owner;
  t.kinds.(page) <- kind_to_int kind

let release t ~page =
  check t page;
  t.owners.(page) <- -1;
  t.kinds.(page) <- 0

let owner t page =
  check t page;
  if t.owners.(page) < 0 then None else Some t.owners.(page)

let kind t page =
  check t page;
  if t.kinds.(page) = 0 then None else Some (kind_of_int t.kinds.(page))

let kind_to_string = function
  | Code -> "code"
  | Global -> "global"
  | Stack -> "stack"
  | Heap -> "heap"
