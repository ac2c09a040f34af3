open Cubicle

let page_size = Pager.page_size
let max_payload = 1024

type t = { pager : Pager.t; mutable root : int }

(* --- node codec -------------------------------------------------------------

   Page layout, little-endian:
     leaf      [1][nkeys u16][next u32], then per entry [key i64][len u16][payload]
     interior  [2][nkeys u16][child 0 u32], then per key [key i64][child i+1 u32]

   [next] is the next leaf's page number + 1 (0 = none). Child i of an
   interior holds the keys k with (number of separators <= k) = i, and
   sits at offset 3 + 12i.

   Nodes are read and edited in place in their cache frames, through
   the pager's views (Pager.with_page_view / write_page_view). Lookups
   search the frame; inserts that fit and deletes edit it in place;
   only a leaf split decodes a leaf into arrays. A view is valid only
   inside its callback, so whatever outlives the callback (the payload
   [find] returns, the entries [iter_range] hands to its callback, the
   parent interior [insert_at] keeps across the descent) is copied out
   first: range-scan callbacks re-enter the tree (Db.index_range
   fetches each row with [find]), and the frame may be evicted once
   the callback returns.

   A leaf is searched by binary search over its entry offsets, which
   the frame memoises (Pager.memo): [offs.(i)] is entry i's offset for
   i < n, and [offs.(n)] the end of the last entry. An invalid memo is
   rebuilt by one walk over the entries; an in-place insert, replace or
   delete shifts the offsets it moved. *)

let kind_leaf = 1
let kind_interior = 2
let header = 7
let interior_max_keys = (page_size - 11) / 12
let max_entries = (page_size - header) / 10 (* a leaf of empty payloads *)
let[@inline] nkeys v = Pager.get_u16 v 1
let[@inline] entry_len v pos = 10 + Pager.get_u16 v (pos + 8)

let set_header v ~kind ~n ~first =
  Pager.set_u8 v 0 kind;
  Pager.set_u16 v 1 n;
  Pager.set_u32 v 3 first

let node_kind v =
  match Pager.get_u8 v 0 with
  | (1 | 2) as k -> k
  | k -> Types.error "btree: bad node kind %d" k

(* The number of entries of the leaf in [v], rebuilding its offset memo
   if it is invalid. The rebuilt array is sized to the leaf. *)
let leaf_entries v =
  let n = Pager.memo_count v in
  if n >= 0 then n
  else begin
    let n = nkeys v in
    if n > max_entries then Types.error "btree: leaf claims %d entries" n;
    let offs = Pager.memo v in
    let offs = if Array.length offs > n then offs else Array.make (n + 1) 0 in
    let pos = ref header in
    for i = 0 to n - 1 do
      offs.(i) <- !pos;
      pos := !pos + entry_len v !pos
    done;
    if !pos > page_size then Types.error "btree: leaf entries overrun the page";
    offs.(n) <- !pos;
    Pager.set_memo v offs n;
    n
  end

(* The rank of [key] among the [n] entries of the leaf in [v]: the
   index of the first entry whose key is >= [key], or [n]. *)
let leaf_rank v n key =
  let offs = Pager.memo v in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Pager.get_i64 v offs.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline] holds v n i key = i < n && Pager.get_i64 v (Pager.memo v).(i) = key

(* Entry [i]'s payload, copied out. *)
let payload_at v offs i = Pager.sub_string v (offs.(i) + 10) (offs.(i + 1) - offs.(i) - 10)

let leaf_locate v key =
  let n = leaf_entries v in
  let i = leaf_rank v n key in
  let offs = Pager.memo v in
  (offs.(i), offs.(n), holds v n i key)

(* Payload of [key] in a leaf; only that payload is copied out. *)
let leaf_find v key =
  let n = leaf_entries v in
  let i = leaf_rank v n key in
  if holds v n i key then Some (payload_at v (Pager.memo v) i) else None

(* Index of the child for [key] in an interior: the number of
   separators <= key, by binary search. *)
let child_index v key =
  let lo = ref 0 and hi = ref (nkeys v) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Pager.get_i64 v (header + (12 * mid)) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline] child_at v i = Pager.get_u32 v (3 + (12 * i))

(* A leaf decoded into arrays, for splitting. *)
type leaf = { lkeys : int64 array; lpayloads : string array; next : int }

let decode_leaf v =
  let n = leaf_entries v in
  let offs = Pager.memo v in
  let lkeys = Array.init n (fun i -> Pager.get_i64 v offs.(i)) in
  { lkeys; lpayloads = Array.init n (payload_at v offs); next = Pager.get_u32 v 3 }

let encode_leaf l v =
  set_header v ~kind:kind_leaf ~n:(Array.length l.lkeys) ~first:l.next;
  let pos = ref header in
  Array.iteri
    (fun i k ->
      let p = l.lpayloads.(i) in
      let len = String.length p in
      Pager.set_i64 v !pos k;
      Pager.set_u16 v (!pos + 8) len;
      Pager.set_string v (!pos + 10) p;
      pos := !pos + 10 + len)
    l.lkeys

(* Encoded size of the leaf holding entries [lo, hi) of [payloads]. *)
let span_bytes payloads lo hi =
  let acc = ref header in
  for i = lo to hi - 1 do
    acc := !acc + 10 + String.length payloads.(i)
  done;
  !acc

(* The length is computed first, so an overflow raises before anything
   is written. *)
let write_leaf t pageno l =
  let len = span_bytes l.lpayloads 0 (Array.length l.lpayloads) in
  if len > page_size then Types.error "btree: node overflows page";
  Pager.write_page_view t.pager pageno ~len (encode_leaf l)

let create pager =
  let root = Pager.allocate_page pager in
  let t = { pager; root } in
  write_leaf t root { lkeys = [||]; lpayloads = [||]; next = 0 };
  t

let attach pager ~root = { pager; root }
let root t = t.root

(* --- lookup ------------------------------------------------------------------ *)

type 'a step = Down of int | At of 'a

(* Root-to-leaf descent searching each interior in place; [at_leaf
   pageno view] runs on the leaf and must copy out what it returns. *)
let descend t key at_leaf =
  let rec go pageno =
    match
      Pager.with_page_view t.pager pageno (fun v ->
          if node_kind v = kind_leaf then At (at_leaf pageno v)
          else Down (child_at v (child_index v key)))
    with
    | At v -> v
    | Down child -> go child
  in
  go t.root

let find t key = descend t key (fun _ v -> leaf_find v key)

let delete t key =
  descend t key (fun pageno v ->
      let n = leaf_entries v in
      let i = leaf_rank v n key in
      if holds v n i key then begin
        let offs = Pager.memo v in
        let pos = offs.(i) and stop = offs.(n) in
        let old = offs.(i + 1) - pos in
        Pager.write_page_view t.pager pageno ~len:(stop - old) (fun v ->
            Pager.blit v ~src:(pos + old) ~dst:pos ~len:(stop - pos - old);
            Pager.set_u16 v 1 (n - 1));
        for j = i to n - 1 do
          offs.(j) <- offs.(j + 1) - old
        done;
        Pager.set_memo v offs (n - 1);
        true
      end
      else false)

(* --- insert ----------------------------------------------------------------- *)

(* binary search: number of elements in [a] that are <= key *)
let rank (a : int64 array) (key : int64) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

type insert_step = Fit | Split of leaf | Descend of bytes * int

(* Revalidate the memo of a leaf of [n] entries after an in-place
   edit at rank [i]: a replace that grew entry [i] by [delta] bytes, or
   ([added]) a new [delta]-byte entry. An added entry may need a larger
   array; it grows by a quarter, so a leaf filled one entry at a time
   reallocates rarely. *)
let shift_memo v n i ~delta ~added =
  let offs = Pager.memo v in
  if added then begin
    let offs =
      if Array.length offs > n + 1 then offs
      else begin
        let a = Array.make (n + 2 + (n / 4)) 0 in
        Array.blit offs 0 a 0 (n + 1);
        a
      end
    in
    for j = n downto i do
      offs.(j + 1) <- offs.(j) + delta
    done;
    Pager.set_memo v offs (n + 1)
  end
  else begin
    for j = i + 1 to n do
      offs.(j) <- offs.(j) + delta
    done;
    Pager.set_memo v offs n
  end

(* Insert or replace in the leaf, editing it in place, if the result
   fits the page; otherwise hand back the decoded leaf. *)
let insert_in_leaf t pageno v ~key ~payload =
  let n = leaf_entries v in
  let i = leaf_rank v n key in
  let found = holds v n i key in
  let offs = Pager.memo v in
  let pos = offs.(i) and stop = offs.(n) in
  let old = if found then offs.(i + 1) - pos else 0 in
  let plen = String.length payload in
  let len = stop - old + 10 + plen in
  if len > page_size then Split (decode_leaf v)
  else begin
    Pager.write_page_view t.pager pageno ~len (fun v ->
        Pager.blit v ~src:(pos + old) ~dst:(pos + 10 + plen) ~len:(stop - pos - old);
        Pager.set_i64 v pos key;
        Pager.set_u16 v (pos + 8) plen;
        Pager.set_string v (pos + 10) payload;
        if not found then Pager.set_u16 v 1 (n + 1));
    shift_memo v n i ~delta:(10 + plen - old) ~added:(not found);
    Fit
  end

(* Where to split an overfull leaf: the middle entry, unless uneven
   payloads would leave a half that overflows; then the longest prefix
   that fits. The entries overflow a page by less than one entry, so
   what remains after that prefix fits too. *)
let split_point payloads =
  let n = Array.length payloads in
  let mid = n / 2 in
  if span_bytes payloads 0 mid <= page_size && span_bytes payloads mid n <= page_size then mid
  else begin
    let mid = ref 0 in
    while span_bytes payloads 0 (!mid + 1) <= page_size do
      incr mid
    done;
    !mid
  end

(* Split an overfull leaf: the upper part moves to a fresh right
   sibling. Returns the separator and the sibling's page. Both leaves'
   memos stay invalid until their next visit. *)
let split_leaf t pageno l ~key ~payload =
  let r = rank l.lkeys key in
  let lkeys, lpayloads =
    if r > 0 && l.lkeys.(r - 1) = key then begin
      let lpayloads = Array.copy l.lpayloads in
      lpayloads.(r - 1) <- payload;
      (l.lkeys, lpayloads)
    end
    else (array_insert l.lkeys r key, array_insert l.lpayloads r payload)
  in
  let n = Array.length lkeys in
  let mid = split_point lpayloads in
  let right_page = Pager.allocate_page t.pager in
  write_leaf t right_page
    { lkeys = Array.sub lkeys mid (n - mid); lpayloads = Array.sub lpayloads mid (n - mid); next = l.next };
  write_leaf t pageno
    { lkeys = Array.sub lkeys 0 mid; lpayloads = Array.sub lpayloads 0 mid; next = right_page + 1 };
  (lkeys.(mid), right_page)

(* Add separator [sep] with right child [right] as entry [ci] of the
   interior whose bytes are [raw], splitting it if it overflows. *)
let insert_separator t pageno raw ci ~sep ~right =
  let n = Bytes.get_uint16_le raw 1 + 1 in
  let at = header + (12 * ci) in
  let splice b =
    Bytes.blit raw 0 b 0 at;
    Bytes.set_int64_le b at sep;
    Bytes.set_int32_le b (at + 8) (Int32.of_int right);
    Bytes.blit raw at b (at + 12) (Bytes.length raw - at);
    Bytes.set_uint16_le b 1 n
  in
  let s = Bytes.create (header + (12 * n)) in
  splice s;
  if n <= interior_max_keys then begin
    Pager.write_page_view t.pager pageno ~len:(Bytes.length s) (fun v ->
        Pager.set_bytes v 0 s ~pos:0 ~len:(Bytes.length s));
    None
  end
  else begin
    (* separator m moves up; entries above it go to a fresh right node
       whose first child is separator m's right child *)
    let m = n / 2 in
    let mid = header + (12 * m) in
    let right_page = Pager.allocate_page t.pager in
    let rn = n - m - 1 in
    Pager.write_page_view t.pager right_page ~len:(header + (12 * rn)) (fun v ->
        set_header v ~kind:kind_interior ~n:rn
          ~first:(Int32.to_int (Bytes.get_int32_le s (mid + 8)));
        Pager.set_bytes v header s ~pos:(mid + 12) ~len:(12 * rn));
    Pager.write_page_view t.pager pageno ~len:mid (fun v ->
        Pager.set_bytes v 0 s ~pos:0 ~len:mid;
        Pager.set_u16 v 1 m);
    Some (Bytes.get_int64_le s mid, right_page)
  end

(* Returns [Some (sep, right_page)] when the node split. *)
let rec insert_at t pageno ~key ~payload =
  match
    Pager.with_page_view t.pager pageno (fun v ->
        if node_kind v = kind_leaf then insert_in_leaf t pageno v ~key ~payload
        else Descend (Pager.sub_bytes v 0 (header + (12 * nkeys v)), child_index v key))
  with
  | Fit -> None
  | Split l -> Some (split_leaf t pageno l ~key ~payload)
  | Descend (raw, ci) -> (
      match insert_at t (Int32.to_int (Bytes.get_int32_le raw (3 + (12 * ci)))) ~key ~payload with
      | None -> None
      | Some (sep, right) -> insert_separator t pageno raw ci ~sep ~right)

let insert t ~key ~payload =
  if String.length payload > max_payload then
    Types.error "btree: payload of %d bytes exceeds max %d" (String.length payload)
      max_payload;
  match insert_at t t.root ~key ~payload with
  | None -> ()
  | Some (sep, right) ->
      let new_root = Pager.allocate_page t.pager in
      Pager.write_page_view t.pager new_root ~len:(header + 12) (fun v ->
          set_header v ~kind:kind_interior ~n:1 ~first:t.root;
          Pager.set_i64 v header sep;
          Pager.set_u32 v (header + 8) right);
      t.root <- new_root

(* --- range scans ---------------------------------------------------------------- *)

(* The entries of a leaf with lo <= key <= hi, copied out, the
   next-leaf link, and whether the scan ends in this leaf (a key above
   [hi], or no next leaf). The slice starts at the rank of [lo]. *)
let leaf_slice v ~lo ~hi =
  let n = leaf_entries v in
  let offs = Pager.memo v in
  let keys = ref [] and payloads = ref [] in
  let rec go i =
    if i = n then Pager.get_u32 v 3 = 0
    else
      let k = Pager.get_i64 v offs.(i) in
      if k > hi then true
      else begin
        keys := k :: !keys;
        payloads := payload_at v offs i :: !payloads;
        go (i + 1)
      end
  in
  let last = go (leaf_rank v n lo) in
  (List.rev !keys, List.rev !payloads, Pager.get_u32 v 3, last)

let iter_range t ~lo ~hi f =
  if lo <= hi then begin
    let rec walk (keys, payloads, next, last) =
      (* the view is released here: [f] may read pages *)
      List.iter2 f keys payloads;
      if not last then
        walk
          (Pager.with_page_view t.pager (next - 1) (fun v ->
               if node_kind v <> kind_leaf then
                 Types.error "btree: leaf chain reaches interior node";
               leaf_slice v ~lo ~hi))
    in
    walk (descend t lo (fun _ v -> leaf_slice v ~lo ~hi))
  end

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k p -> acc := f !acc k p);
  !acc

let count_range t ~lo ~hi = fold_range t ~lo ~hi ~init:0 ~f:(fun acc _ _ -> acc + 1)
let iter_all t f = iter_range t ~lo:Int64.min_int ~hi:Int64.max_int f

let min_key t =
  let exception Found of int64 in
  try
    iter_all t (fun k _ -> raise (Found k));
    None
  with Found k -> Some k

let max_key t = fold_range t ~lo:Int64.min_int ~hi:Int64.max_int ~init:None ~f:(fun _ k _ -> Some k)

let depth t =
  let rec go pageno acc =
    match
      Pager.with_page_view t.pager pageno (fun v ->
          if node_kind v = kind_leaf then None else Some (child_at v 0))
    with
    | None -> acc
    | Some child -> go child (acc + 1)
  in
  go t.root 1
