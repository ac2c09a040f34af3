(* A grant's permission: the paper's windows are all-or-nothing, but
   least-privilege compartmentalization (BULKHEAD-style) wants the
   owner to say "this peer may read, not write". [R] vs [RW] lives on
   the range, not the window, so one window can mix read-only staging
   ranges with writable data ranges. *)
type perm = R | RW

type access = Read | Write

let perm_allows p (a : access) =
  match (p, a) with RW, _ -> true | R, Read -> true | R, Write -> false

type range = { ptr : int; size : int; mutable perm : perm }

type t = {
  wid : Types.wid;
  owner : Types.cid;
  klass : Mm.Page_meta.kind;
  mutable ranges : range list;
  mutable opened : Types.cid list;  (* ascending, no duplicates *)
  universe : int;  (* grantees are cids below this *)
  mutable alive : bool;
  mutable dedicated_key : int option;
}

(* The window ACL index: for each page, every live window with a range
   touching it, of any owner and class. The monitor makes one, sized to
   the machine, and every table shares it: a window op or fault reads
   one array slot instead of hashing a (class, page) key. *)
type index = t list array

let create_index npages : index = Array.make npages []

type table = {
  tbl_owner : Types.cid;
  ncubicles : int;
  mutable next_wid : int;
  (* One descriptor array per data class, as in the paper, indexed by
     [slot]; each has a fixed capacity that the monitor extends on
     request (§5.3: "if a window descriptor array runs out of free
     entries, the user code asks the monitor to extend it"). *)
  arrs : t list array;
  caps : int array;
  (* Standing sendfile grants make the fault-path lookup hot; the index
     replaces the linear array scan while charging exactly what the
     scan would have (the inspected count is recomputed as the
     winner's array position). *)
  index : index;
}

(* Array order is [all]'s order: global, stack, heap, code. *)
let slot klass = Mm.Page_meta.code klass - 1

let initial_capacity = 8

let create_table ~owner ~ncubicles ~index =
  {
    tbl_owner = owner;
    ncubicles;
    next_wid = 1;
    arrs = Array.make 4 [];
    caps = Array.make 4 initial_capacity;
    index;
  }

let owner t = t.tbl_owner
let arr_of table klass = table.arrs.(slot klass)
let set_arr table klass v = table.arrs.(slot klass) <- v
let capacity table klass = table.caps.(slot klass)
let extend table klass = table.caps.(slot klass) <- 2 * capacity table klass

let init table ~klass =
  if List.length (arr_of table klass) >= capacity table klass then
    raise
      (Types.Denied
         (Descriptors_full { cid = table.tbl_owner; klass; capacity = capacity table klass }));
  let w =
    {
      wid = table.next_wid;
      owner = table.tbl_owner;
      klass;
      ranges = [];
      opened = [];
      universe = table.ncubicles;
      alive = true;
      dedicated_key = None;
    }
  in
  table.next_wid <- table.next_wid + 1;
  set_arr table klass (w :: arr_of table klass);
  w

let all { arrs; _ } = arrs.(0) @ arrs.(1) @ arrs.(2) @ arrs.(3)

(* The suffix of [ws] that starts at live window [wid], [] if none. *)
let rec from_wid wid = function
  | [] -> []
  | w :: rest as ws -> if w.wid = wid && w.alive then ws else from_wid wid rest

let rec find_from table wid s =
  if s = Array.length table.arrs then
    raise (Types.Denied (No_window { wid; cid = table.tbl_owner }))
  else
    match from_wid wid table.arrs.(s) with
    | w :: _ -> w
    | [] -> find_from table wid (s + 1)

(* The first match in [all]'s order, without building [all]: every
   window op looks its window up. *)
let find table wid = find_from table wid 0

let check_alive w = if not w.alive then raise (Types.Denied (Window_destroyed w.wid))

let range_touches_page r p =
  Hw.Addr.page_of r.ptr <= p && p <= Hw.Addr.page_of (r.ptr + r.size - 1)

let index_range table w r =
  let index = table.index in
  for p = Hw.Addr.page_of r.ptr to Hw.Addr.page_of (r.ptr + r.size - 1) do
    let bucket = index.(p) in
    if not (List.memq w bucket) then index.(p) <- w :: bucket
  done

let rec any_touches_page p = function
  | [] -> false
  | r :: rest -> range_touches_page r p || any_touches_page p rest

(* [xs] without its one element [x], in order: buckets and descriptor
   arrays hold each window once, a window each range and grantee once. *)
let rec without x = function
  | [] -> []
  | x' :: rest -> if x' == x then rest else x' :: without x rest

(* Drop [w] from the bucket of every page of [r] that no remaining
   range of [w] still touches. *)
let unindex_range table w r =
  let index = table.index in
  for p = Hw.Addr.page_of r.ptr to Hw.Addr.page_of (r.ptr + r.size - 1) do
    if not (any_touches_page p w.ranges) then index.(p) <- without w index.(p)
  done

let add_range ?(perm = RW) table w ~ptr ~size =
  check_alive w;
  if size <= 0 then raise (Types.Denied (Bad_range_size { wid = w.wid; size }));
  let r = { ptr; size; perm } in
  w.ranges <- r :: w.ranges;
  index_range table w r

let rec newest_at ptr = function
  | [] -> None
  | r :: rest -> if r.ptr = ptr then Some r else newest_at ptr rest

let range_at w ~ptr =
  match newest_at ptr w.ranges with
  | Some r -> r
  | None -> raise (Types.Denied (No_range_at { wid = w.wid; ptr }))

(* In-place permission downgrade RW -> R of the (newest) grant rooted
   at [ptr]. Downgrading is always safe for the peer (it can only lose
   write access); upgrading R -> RW is deliberately not provided — the
   owner re-grants instead, so a widening is always a visible,
   auditable window op. The page index is untouched: the range still
   spans the same pages. *)
let downgrade_range w ~ptr =
  check_alive w;
  (range_at w ~ptr).perm <- R

let remove_range table w ~ptr =
  check_alive w;
  (* Exactly one range per remove: two add_range calls with the same
     base (and possibly different sizes) are two grants, and a single
     remove must not revoke both. *)
  let r = range_at w ~ptr in
  w.ranges <- without r w.ranges;
  unindex_range table w r

let check_cid w cid =
  if cid < 0 || cid >= w.universe then
    invalid_arg (Printf.sprintf "Window: cubicle %d outside universe %d" cid w.universe)

(* [List.mem] on cids without the polymorphic compare: a C call per
   element on the fault path's [is_open_for]. *)
let rec mem_cid (cid : Types.cid) = function
  | [] -> false
  | c :: rest -> c = cid || mem_cid cid rest

let rec insert cid = function
  | [] -> [ cid ]
  | c :: rest as l -> if cid < c then cid :: l else c :: insert cid rest

let open_for w cid =
  check_alive w;
  check_cid w cid;
  if not (mem_cid cid w.opened) then w.opened <- insert cid w.opened

let close_for w cid =
  check_alive w;
  check_cid w cid;
  if mem_cid cid w.opened then w.opened <- without cid w.opened

let close_all w =
  check_alive w;
  w.opened <- []

let rec unindex_ranges table w = function
  | [] -> ()
  | r :: rest ->
      unindex_range table w r;
      unindex_ranges table w rest

let destroy table w =
  check_alive w;
  let old_ranges = w.ranges in
  w.alive <- false;
  w.ranges <- [];
  w.opened <- [];
  unindex_ranges table w old_ranges;
  set_arr table w.klass (without w (arr_of table w.klass))

let is_open_for w cid =
  w.alive
  && (check_cid w cid;
      mem_cid cid w.opened)

let rec in_ranges addr = function
  | [] -> false
  | r :: rest -> (addr >= r.ptr && addr < r.ptr + r.size) || in_ranges addr rest

let contains w addr = w.alive && in_ranges addr w.ranges

(* Byte-exact span coverage: walk forward from [ptr], at each position
   jumping to the end of any range containing it, until no range makes
   progress. Handles spans stitched together from several grants. Only
   ranges whose permission allows [access] participate — a Write span
   must be stitched entirely from RW grants; an R hole breaks it. *)
let covered_prefix ?(access = Read) w ~ptr ~size =
  if (not w.alive) || size <= 0 then 0
  else begin
    let pos = ref ptr and limit = ptr + size in
    let progressed = ref true in
    while !pos < limit && !progressed do
      progressed := false;
      List.iter
        (fun r ->
          if perm_allows r.perm access && !pos >= r.ptr && !pos < r.ptr + r.size then begin
            pos := min limit (r.ptr + r.size);
            progressed := true
          end)
        w.ranges
    done;
    !pos - ptr
  end

let covers ?(access = Read) w ~ptr ~size =
  size > 0 && covered_prefix ~access w ~ptr ~size >= size

(* The fault path's permission check: is a write to [addr] through this
   window backed by some RW grant? ([contains] stays access-agnostic —
   the search must still find the window so the denial is priced like
   the paper's Key_perm fault: descriptor walk charged, then reject.) *)
let rec in_rw_ranges addr = function
  | [] -> false
  | r :: rest ->
      (r.perm = RW && addr >= r.ptr && addr < r.ptr + r.size) || in_rw_ranges addr rest

let writable w ~addr = w.alive && in_rw_ranges addr w.ranges

(* What [search] returns when no window matches; never live. *)
let none =
  {
    wid = 0;
    owner = -1;
    klass = Mm.Page_meta.Code;
    ranges = [];
    opened = [];
    universe = 0;
    alive = false;
    dedicated_key = None;
  }

(* The newest window of [owner]'s [klass] array containing [addr]: the
   bucket holds every owner's windows, and wids are unique only within
   one owner's table. *)
let rec newest_containing owner klass addr best = function
  | [] -> best
  | w :: rest ->
      let best =
        if w.owner = owner && w.klass == klass && w.wid > best.wid && contains w addr then
          w
        else best
      in
      newest_containing owner klass addr best rest

(* Page-indexed lookup, bit-identical to a linear scan: descriptor
   arrays are newest-first with strictly descending (never reused)
   wids, so the linear scan's winner is the containing window with the
   largest wid. *)
let search table ~klass ~addr =
  newest_containing table.tbl_owner klass addr none table.index.(Hw.Addr.page_of addr)

let rec position w i = function
  | [] -> invalid_arg "Window.inspected: not a live window of this table"
  | w' :: rest -> if w' == w then i else position w (i + 1) rest

(* The charged "descriptors inspected" count is the window's 1-based
   position in its class's array. *)
let inspected table w = position w 1 (arr_of table w.klass)

let indexed table ~page = table.index.(page)

let set_dedicated_key w k =
  check_alive w;
  w.dedicated_key <- k

let live_windows table = List.filter (fun w -> w.alive) (all table)
let count table = List.length (live_windows table)
