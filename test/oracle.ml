(* Reference answers computed the slow, obvious way, for tests to hold
   the library's indexed structures against. *)

(* Every page owned by [cid], ascending: a scan of the whole page
   metadata map. *)
let pages_owned_by meta ~npages cid =
  List.filter (fun p -> Mm.Page_meta.owner meta p = Some cid) (List.init npages Fun.id)

let monitor_pages_owned_by mon cid =
  pages_owned_by (Cubicle.Monitor.meta mon)
    ~npages:(Hw.Cpu.npages (Cubicle.Monitor.cpu mon))
    cid

(* The paper's linear scan of one class's descriptor array (§5.3 step
   ❸): the first live window containing [addr], newest first, and how
   many descriptors it inspected. [Window.search] must agree exactly. *)
let window_search tbl ~klass ~addr =
  let open Cubicle.Window in
  let rec scan inspected = function
    | [] -> None
    | w :: rest -> if contains w addr then Some (w, inspected + 1) else scan (inspected + 1) rest
  in
  scan 0 (List.filter (fun w -> w.klass = klass) (live_windows tbl))

(* [Window.search]'s answer in [window_search]'s shape. *)
let indexed_search tbl ~klass ~addr =
  let w = Cubicle.Window.search tbl ~klass ~addr in
  if w == Cubicle.Window.none then None else Some (w, Cubicle.Window.inspected tbl w)

(* First fit the slow, obvious way: one flag per unit of
   [base, base+size), and an allocation of [n] units takes the lowest
   [align]-aligned base whose [n] units are all free ([None] when there
   is none). [Mm.Suballoc] must return the same base every time. *)
module First_fit = struct
  type t = { base : int; used : bool array; blocks : (int, int) Hashtbl.t }

  let create ~base ~size = { base; used = Array.make size false; blocks = Hashtbl.create 16 }

  let mark t addr n v = Array.fill t.used (addr - t.base) n v
  let aligned a align = (a + align - 1) / align * align

  let alloc t ~align n =
    let size = Array.length t.used in
    (* The last used unit of [a, a+n), if any: no base at or below it
       can hold the block. *)
    let rec last_used a i =
      if i < 0 then None else if t.used.(a - t.base + i) then Some (a + i) else last_used a (i - 1)
    in
    let rec first a =
      if a - t.base + n > size then None
      else
        match last_used a (n - 1) with
        | None -> Some a
        | Some u -> first (aligned (u + 1) align)
    in
    let found = first (aligned t.base align) in
    Option.iter
      (fun a ->
        mark t a n true;
        Hashtbl.replace t.blocks a n)
      found;
    found

  let free t addr =
    mark t addr (Hashtbl.find t.blocks addr) false;
    Hashtbl.remove t.blocks addr

  let used t = Hashtbl.fold (fun _ n acc -> acc + n) t.blocks 0
end

(* The B-tree node codec as it stood before nodes were coded in place: a
   page decoded into arrays, re-encoded through a [Buffer]. Every node
   page the tree writes must re-encode to exactly its own bytes. *)
type btree_node =
  | Leaf of { keys : int64 array; payloads : string array; next : int }
  | Interior of { keys : int64 array; children : int array }

let btree_encode_node node =
  let b = Buffer.create 512 in
  (match node with
  | Leaf l ->
      Buffer.add_uint8 b 1;
      Buffer.add_uint16_le b (Array.length l.keys);
      Buffer.add_int32_le b (Int32.of_int l.next);
      Array.iteri
        (fun i k ->
          Buffer.add_int64_le b k;
          Buffer.add_uint16_le b (String.length l.payloads.(i));
          Buffer.add_string b l.payloads.(i))
        l.keys
  | Interior n ->
      Buffer.add_uint8 b 2;
      Buffer.add_uint16_le b (Array.length n.keys);
      Buffer.add_int32_le b (Int32.of_int n.children.(0));
      Array.iteri
        (fun i k ->
          Buffer.add_int64_le b k;
          Buffer.add_int32_le b (Int32.of_int n.children.(i + 1)))
        n.keys);
  Buffer.contents b

let btree_decode_node s =
  let nkeys = Char.code s.[1] lor (Char.code s.[2] lsl 8) in
  let u32 off = Int32.to_int (String.get_int32_le s off) in
  match Char.code s.[0] with
  | 1 ->
      let keys = Array.make nkeys 0L and payloads = Array.make nkeys "" in
      let pos = ref 7 in
      for i = 0 to nkeys - 1 do
        keys.(i) <- String.get_int64_le s !pos;
        let len = Char.code s.[!pos + 8] lor (Char.code s.[!pos + 9] lsl 8) in
        payloads.(i) <- String.sub s (!pos + 10) len;
        pos := !pos + 10 + len
      done;
      Leaf { keys; payloads; next = u32 3 }
  | 2 ->
      let children = Array.make (nkeys + 1) (u32 3) in
      let keys = Array.make nkeys 0L in
      for i = 0 to nkeys - 1 do
        keys.(i) <- String.get_int64_le s (7 + (12 * i));
        children.(i + 1) <- u32 (7 + (12 * i) + 8)
      done;
      Interior { keys; children }
  | k -> invalid_arg (Printf.sprintf "btree_decode_node: kind %d" k)

(* The leaf search as it stood before one walk found both offsets: the
   offset of the first entry whose key is >= [key] (or the end) by one
   walk, the offset just past the last entry by a second. *)
let btree_entry_len b pos = 10 + Bytes.get_uint16_le b (pos + 8)

let btree_leaf_end b =
  let pos = ref 7 in
  for _ = 1 to Bytes.get_uint16_le b 1 do
    pos := !pos + btree_entry_len b !pos
  done;
  !pos

let btree_leaf_seek b key =
  let n = Bytes.get_uint16_le b 1 in
  let rec go i pos =
    if i = n || Bytes.get_int64_le b pos >= key then pos
    else go (i + 1) (pos + btree_entry_len b pos)
  in
  go 0 7

(* Simulated memory as it stood before it moved off the OCaml heap: one
   [Bytes], every access bounds-checked by [Bytes] itself after the same
   simulated-range check. [Hw.Phys_mem] must answer every access as
   this does, raising [Invalid_argument] exactly when it does. *)
module Mem = struct
  type t = bytes

  let create size = Bytes.make size '\000'

  let check t addr len =
    if addr < 0 || len < 0 || addr + len > Bytes.length t then invalid_arg "Mem: out of memory"

  let get_u8 t a = check t a 1; Bytes.get_uint8 t a
  let set_u8 t a v = check t a 1; Bytes.set_uint8 t a (v land 0xFF)
  let get_u16 t a = check t a 2; Bytes.get_uint16_le t a
  let set_u16 t a v = check t a 2; Bytes.set_uint16_le t a (v land 0xFFFF)
  let get_u32 t a = check t a 4; Int32.to_int (Bytes.get_int32_le t a) land 0xFFFF_FFFF
  let set_u32 t a v = check t a 4; Bytes.set_int32_le t a (Int32.of_int v)
  let get_i64 t a = check t a 8; Bytes.get_int64_le t a
  let set_i64 t a v = check t a 8; Bytes.set_int64_le t a v
  let read_into t a buf ~pos ~len = check t a len; Bytes.blit t a buf pos len
  let write_sub t a buf ~pos ~len = check t a len; Bytes.blit buf pos t a len

  let write_string t a s =
    check t a (String.length s);
    Bytes.blit_string s 0 t a (String.length s)

  let blit t ~src ~dst ~len = check t src len; check t dst len; Bytes.blit t src t dst len
  let fill t a len c = check t a len; Bytes.fill t a len c
end

(* The loader's forbidden-sequence scan as it stood before it skipped
   from one 0x0F byte to the next: test every sequence at every
   offset. [Hw.Instr.scan_forbidden] must report the same hits in the
   same (ascending) order. *)
let scan_forbidden code =
  let seqs = [ ("\x0F\x01\xEF", "wrpkru"); ("\x0F\x05", "syscall") ] in
  let n = Bytes.length code in
  let at off (seq, what) =
    let len = String.length seq in
    if off + len <= n && Bytes.sub_string code off len = seq then
      Some { Hw.Instr.offset = off; what }
    else None
  in
  List.concat_map (fun off -> List.filter_map (at off) seqs) (List.init n Fun.id)

(* The monitor's window and page-run bookkeeping, kept the slow, obvious
   way: every window with its ranges (newest first) and its grantee
   list, every [alloc_pages] run, and the free page count. A state
   machine test drives the monitor and this model side by side; the
   model says which services must fail, and the monitor's grant index,
   [is_open_for] and free page count must equal the model's after every
   step. *)
module Grants = struct
  type window = {
    owner : int;
    wid : int;
    mutable ranges : (int * int) list;  (* (ptr, size), newest first *)
    mutable opened : int list;
    mutable alive : bool;
  }

  type t = {
    mutable windows : window list;  (* destroyed ones too, to provoke stale wids *)
    mutable runs : (int * int * int) list;  (* (owner, base page, npages) *)
    mutable free_pages : int;
  }

  let create ~free_pages = { windows = []; runs = []; free_pages }
  let init t ~owner ~wid = t.windows <- { owner; wid; ranges = []; opened = []; alive = true } :: t.windows
  let add w ~ptr ~size = w.ranges <- (ptr, size) :: w.ranges
  let open_for w peer = if not (List.mem peer w.opened) then w.opened <- peer :: w.opened
  let close_for w peer = w.opened <- List.filter (( <> ) peer) w.opened
  let close_all w = w.opened <- []

  (* Drops the newest range rooted at [ptr]; false if there is none. *)
  let remove w ~ptr =
    let rec drop = function
      | [] -> None
      | (p, _) :: rest when p = ptr -> Some rest
      | r :: rest -> Option.map (fun rest -> r :: rest) (drop rest)
    in
    match drop w.ranges with
    | Some ranges ->
        w.ranges <- ranges;
        true
    | None -> false

  let destroy w =
    w.alive <- false;
    w.ranges <- [];
    w.opened <- []

  let alloc t ~owner ~page ~n =
    t.runs <- (owner, page, n) :: t.runs;
    t.free_pages <- t.free_pages - n

  (* Frees the run based at [page] if [owner] allocated it; false
     otherwise. *)
  let free t ~owner ~page =
    match List.find_opt (fun (o, p, _) -> o = owner && p = page) t.runs with
    | Some ((_, _, n) as run) ->
        t.runs <- List.filter (( != ) run) t.runs;
        t.free_pages <- t.free_pages + n;
        true
    | None -> false

  let runs_of t owner = List.filter (fun (o, _, _) -> o = owner) t.runs

  (* The (owner, wid) of every live window open for [cid], ascending. *)
  let open_for_cid t cid =
    List.filter (fun w -> w.alive && List.mem cid w.opened) t.windows
    |> List.map (fun w -> (w.owner, w.wid))
    |> List.sort compare
end
