exception Out_of_memory

type t = {
  first_page : int;
  npages : int;
  mutable free_runs : (int * int) list;  (* (start, len), sorted by start *)
  allocated : (int, int) Hashtbl.t;  (* run start -> len *)
  mutable used : int;
}

let create ~first_page ~npages =
  if npages <= 0 then invalid_arg "Page_alloc.create: empty range";
  {
    first_page;
    npages;
    free_runs = [ (first_page, npages) ];
    allocated = Hashtbl.create 64;
    used = 0;
  }

let alloc t n =
  if n <= 0 then invalid_arg "Page_alloc.alloc: non-positive size";
  let rec take = function
    | [] -> raise Out_of_memory
    | (start, len) :: rest when len >= n ->
        let remainder = if len = n then rest else (start + n, len - n) :: rest in
        (start, remainder)
    | run :: rest ->
        let start, remainder = take rest in
        (start, run :: remainder)
  in
  let start, runs = take t.free_runs in
  t.free_runs <- runs;
  Hashtbl.replace t.allocated start n;
  t.used <- t.used + n;
  start

(* Insert a run back, keeping the list sorted and coalescing neighbours. *)
let rec insert_run start len = function
  | [] -> [ (start, len) ]
  | (s, l) :: rest when start + len = s -> (start, len + l) :: rest
  | (s, l) :: rest when s + l = start -> insert_run s (l + len) rest
  | (s, l) :: rest when start < s -> (start, len) :: (s, l) :: rest
  | run :: rest -> run :: insert_run start len rest

let free t page =
  match Hashtbl.find_opt t.allocated page with
  | None -> invalid_arg (Printf.sprintf "Page_alloc.free: page %d is not a run start" page)
  | Some len ->
      Hashtbl.remove t.allocated page;
      t.used <- t.used - len;
      t.free_runs <- insert_run page len t.free_runs

let run_size t page = Hashtbl.find_opt t.allocated page
let used_pages t = t.used
let free_pages t = t.npages - t.used
