exception Exhausted

(* A free chunk. Chunks are updated in place, so an allocation that
   trims a chunk and a free that grows one allocate nothing. *)
type chunk = { mutable addr : int; mutable len : int }

type t = {
  size : int;
  mutable free_list : chunk list;  (* sorted by addr, never adjacent *)
  blocks : int Int_tbl.t;  (* addr -> len *)
  mutable used : int;
}

let create ~base ~size =
  if size <= 0 then invalid_arg "Suballoc.create: empty heap";
  { size; free_list = [ { addr = base; len = size } ]; blocks = Int_tbl.create 64; used = 0 }

let round_up v align = (v + align - 1) / align * align

(* [chunks] with [c :: rest] replaced by [f rest]: the rare allocations
   and frees that add or drop a chunk. *)
let rec splice c f = function
  | [] -> []
  | c' :: rest -> if c' == c then f rest else c' :: splice c f rest

(* First fit: the first free chunk that can hold an aligned block of n
   units; any leading pad and trailing remainder stay free, in address
   order. *)
let rec take t ~align n = function
  | [] -> raise Exhausted
  | c :: rest ->
      let start = round_up c.addr align in
      let pad = start - c.addr in
      let tail = c.len - pad - n in
      if tail < 0 then take t ~align n rest
      else begin
        if pad = 0 && tail = 0 then t.free_list <- splice c Fun.id t.free_list
        else if pad = 0 then begin
          c.addr <- start + n;
          c.len <- tail
        end
        else begin
          c.len <- pad;
          if tail > 0 then
            let fresh = { addr = start + n; len = tail } in
            t.free_list <- splice c (fun rest -> c :: fresh :: rest) t.free_list
        end;
        start
      end

let alloc ?(align = 8) t n =
  if n <= 0 then invalid_arg "Suballoc.alloc: non-positive size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Suballoc.alloc: alignment must be a power of two";
  let addr = take t ~align n t.free_list in
  Int_tbl.replace t.blocks addr n;
  t.used <- t.used + n;
  addr

(* Return [addr, addr+len) to the free list, merging it with the chunk
   that ends at [addr] and the one that starts at [addr+len]. *)
let rec give_back t addr len = function
  | [] -> t.free_list <- t.free_list @ [ { addr; len } ]
  | c :: rest ->
      if c.addr + c.len = addr then begin
        c.len <- c.len + len;
        match rest with
        | next :: _ when next.addr = c.addr + c.len ->
            c.len <- c.len + next.len;
            t.free_list <- splice next Fun.id t.free_list
        | _ -> ()
      end
      else if addr + len = c.addr then begin
        c.addr <- addr;
        c.len <- c.len + len
      end
      else if addr < c.addr then
        t.free_list <- splice c (fun rest -> { addr; len } :: c :: rest) t.free_list
      else give_back t addr len rest

let free t addr =
  match Int_tbl.find t.blocks addr with
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Suballoc.free: 0x%x is not a live block" addr)
  | len ->
      Int_tbl.remove t.blocks addr;
      t.used <- t.used - len;
      give_back t addr len t.free_list

let block_size t addr = Int_tbl.find_opt t.blocks addr
let used_bytes t = t.used
let size t = t.size
let live_blocks t = Int_tbl.length t.blocks
