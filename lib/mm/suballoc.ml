exception Exhausted

module Int_tbl = Hashtbl.Make (Int)

type t = {
  base : int;
  size : int;
  mutable free_list : (int * int) list;  (* (addr, len) sorted by addr *)
  blocks : int Int_tbl.t;  (* addr -> len *)
  mutable used : int;
}

let create ~base ~size =
  if size <= 0 then invalid_arg "Suballoc.create: empty heap";
  { base; size; free_list = [ (base, size) ]; blocks = Int_tbl.create 64; used = 0 }

let round_up v align = (v + align - 1) / align * align

let alloc ?(align = 8) t n =
  if n <= 0 then invalid_arg "Suballoc.alloc: non-positive size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Suballoc.alloc: alignment must be a power of two";
  (* First fit: find a free chunk that can hold an aligned block of n
     units; split off any leading pad and trailing remainder. The pieces
     stay in address order, so the list needs no sorting. *)
  let rec take = function
    | [] -> raise Exhausted
    | (addr, len) :: rest ->
        let start = round_up addr align in
        let pad = start - addr in
        if len >= pad + n then begin
          let pieces = ref rest in
          let tail = len - pad - n in
          if tail > 0 then pieces := (start + n, tail) :: !pieces;
          if pad > 0 then pieces := (addr, pad) :: !pieces;
          (start, !pieces)
        end
        else
          let start', remainder = take rest in
          (start', (addr, len) :: remainder)
  in
  let addr, remainder = take t.free_list in
  t.free_list <- remainder;
  Int_tbl.replace t.blocks addr n;
  t.used <- t.used + n;
  addr

let rec insert addr len = function
  | [] -> [ (addr, len) ]
  | (a, l) :: rest when addr + len = a -> (addr, len + l) :: rest
  | (a, l) :: rest when a + l = addr -> insert a (l + len) rest
  | (a, l) :: rest when addr < a -> (addr, len) :: (a, l) :: rest
  | chunk :: rest -> chunk :: insert addr len rest

let free t addr =
  match Int_tbl.find_opt t.blocks addr with
  | None -> invalid_arg (Printf.sprintf "Suballoc.free: 0x%x is not a live block" addr)
  | Some len ->
      Int_tbl.remove t.blocks addr;
      t.used <- t.used - len;
      t.free_list <- insert addr len t.free_list

let block_size t addr = Int_tbl.find_opt t.blocks addr
let used_bytes t = t.used
let base t = t.base
let size t = t.size
let live_blocks t = Int_tbl.length t.blocks
