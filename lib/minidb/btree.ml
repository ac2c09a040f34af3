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

   Nodes are only ever read and written through the pager's page image
   (Pager.with_page_image / write_page_image), one host buffer reused by
   the next page access. Lookups search it in place; inserts that fit
   and deletes edit it in place and write it straight back; only a leaf
   split decodes a leaf into arrays. Whatever outlives the callback —
   the payload [find] returns, the entries [iter_range] hands to its
   callback, the parent interior [insert_at] keeps across the descent —
   is copied out of the image first: range-scan callbacks re-enter the
   tree (Db.index_range fetches each row with [find]), and the next
   page access overwrites the image. *)

let kind_leaf = 1
let kind_interior = 2
let header = 7
let interior_max_keys = (page_size - 11) / 12
let[@inline] get_u32 b off = Int32.to_int (Bytes.get_int32_le b off)
let[@inline] set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let[@inline] nkeys b = Bytes.get_uint16_le b 1
let[@inline] entry_len b pos = 10 + Bytes.get_uint16_le b (pos + 8)

let set_header b ~kind ~n ~first =
  Bytes.set_uint8 b 0 kind;
  Bytes.set_uint16_le b 1 n;
  set_u32 b 3 first

let node_kind b =
  match Bytes.get_uint8 b 0 with
  | (1 | 2) as k -> k
  | k -> Types.error "btree: bad node kind %d" k

(* One walk over a leaf image: the offset of the first entry whose key
   is >= [key] (the end if there is none), the offset just past the
   last entry, and whether the entry at the first offset holds [key]. *)
let leaf_locate b key =
  let n = nkeys b in
  let rec past i pos = if i = n then pos else past (i + 1) (pos + entry_len b pos) in
  let rec seek i pos =
    if i = n then (pos, pos, false)
    else
      let k = Bytes.get_int64_le b pos in
      if k >= key then (pos, past i pos, k = key) else seek (i + 1) (pos + entry_len b pos)
  in
  seek 0 header

(* Payload of [key] in a leaf image; only that payload is copied out. *)
let leaf_find b key =
  match leaf_locate b key with
  | pos, _, true -> Some (Bytes.sub_string b (pos + 10) (entry_len b pos - 10))
  | _ -> None

(* Index of the child for [key] in an interior image: the number of
   separators <= key, by binary search. *)
let child_index b key =
  let lo = ref 0 and hi = ref (nkeys b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bytes.get_int64_le b (header + (12 * mid)) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline] child_at b i = get_u32 b (3 + (12 * i))

(* A leaf decoded into arrays, for splitting. *)
type leaf = { lkeys : int64 array; lpayloads : string array; next : int }

let decode_leaf b =
  let n = nkeys b in
  let lkeys = Array.make n 0L in
  let lpayloads = Array.make n "" in
  let pos = ref header in
  for i = 0 to n - 1 do
    lkeys.(i) <- Bytes.get_int64_le b !pos;
    lpayloads.(i) <- Bytes.sub_string b (!pos + 10) (entry_len b !pos - 10);
    pos := !pos + entry_len b !pos
  done;
  { lkeys; lpayloads; next = get_u32 b 3 }

let encode_leaf l b =
  set_header b ~kind:kind_leaf ~n:(Array.length l.lkeys) ~first:l.next;
  let pos = ref header in
  Array.iteri
    (fun i k ->
      let p = l.lpayloads.(i) in
      let len = String.length p in
      Bytes.set_int64_le b !pos k;
      Bytes.set_uint16_le b (!pos + 8) len;
      Bytes.blit_string p 0 b (!pos + 10) len;
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
  Pager.write_page_image t.pager pageno ~len (encode_leaf l)

let create pager =
  let root = Pager.allocate_page pager in
  let t = { pager; root } in
  write_leaf t root { lkeys = [||]; lpayloads = [||]; next = 0 };
  t

let attach pager ~root = { pager; root }
let root t = t.root

(* --- lookup ------------------------------------------------------------------ *)

type 'a step = Down of int | At of 'a

(* Root-to-leaf descent searching each interior image in place; [at_leaf
   pageno image] runs on the leaf and must copy out what it returns. *)
let descend t key at_leaf =
  let rec go pageno =
    match
      Pager.with_page_image t.pager pageno (fun b ->
          if node_kind b = kind_leaf then At (at_leaf pageno b)
          else Down (child_at b (child_index b key)))
    with
    | At v -> v
    | Down child -> go child
  in
  go t.root

let find t key = descend t key (fun _ b -> leaf_find b key)

let delete t key =
  descend t key (fun pageno b ->
      let pos, stop, found = leaf_locate b key in
      if found then begin
        let old = entry_len b pos in
        Pager.write_page_image t.pager pageno ~len:(stop - old) (fun b ->
            Bytes.blit b (pos + old) b pos (stop - pos - old);
            Bytes.set_uint16_le b 1 (nkeys b - 1));
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

(* Insert or replace in the leaf image, editing it in place, if the
   result fits the page; otherwise hand back the decoded leaf. *)
let insert_in_leaf t pageno b ~key ~payload =
  let pos, stop, found = leaf_locate b key in
  let old = if found then entry_len b pos else 0 in
  let plen = String.length payload in
  let len = stop - old + 10 + plen in
  if len > page_size then Split (decode_leaf b)
  else begin
    Pager.write_page_image t.pager pageno ~len (fun b ->
        Bytes.blit b (pos + old) b (pos + 10 + plen) (stop - pos - old);
        Bytes.set_int64_le b pos key;
        Bytes.set_uint16_le b (pos + 8) plen;
        Bytes.blit_string payload 0 b (pos + 10) plen;
        if not found then Bytes.set_uint16_le b 1 (nkeys b + 1));
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
   sibling. Returns the separator and the sibling's page. *)
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
  let n = nkeys raw + 1 in
  let at = header + (12 * ci) in
  let splice b =
    Bytes.blit raw 0 b 0 at;
    Bytes.set_int64_le b at sep;
    set_u32 b (at + 8) right;
    Bytes.blit raw at b (at + 12) (Bytes.length raw - at);
    Bytes.set_uint16_le b 1 n
  in
  if n <= interior_max_keys then begin
    Pager.write_page_image t.pager pageno ~len:(header + (12 * n)) splice;
    None
  end
  else begin
    (* separator m moves up; entries above it go to a fresh right node
       whose first child is separator m's right child *)
    let s = Bytes.create (header + (12 * n)) in
    splice s;
    let m = n / 2 in
    let mid = header + (12 * m) in
    let right_page = Pager.allocate_page t.pager in
    let rn = n - m - 1 in
    Pager.write_page_image t.pager right_page ~len:(header + (12 * rn)) (fun b ->
        set_header b ~kind:kind_interior ~n:rn ~first:(get_u32 s (mid + 8));
        Bytes.blit s (mid + 12) b header (12 * rn));
    Pager.write_page_image t.pager pageno ~len:mid (fun b ->
        Bytes.blit s 0 b 0 mid;
        Bytes.set_uint16_le b 1 m);
    Some (Bytes.get_int64_le s mid, right_page)
  end

(* Returns [Some (sep, right_page)] when the node split. *)
let rec insert_at t pageno ~key ~payload =
  match
    Pager.with_page_image t.pager pageno (fun b ->
        if node_kind b = kind_leaf then insert_in_leaf t pageno b ~key ~payload
        else Descend (Bytes.sub b 0 (header + (12 * nkeys b)), child_index b key))
  with
  | Fit -> None
  | Split l -> Some (split_leaf t pageno l ~key ~payload)
  | Descend (raw, ci) -> (
      match insert_at t (child_at raw ci) ~key ~payload with
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
      Pager.write_page_image t.pager new_root ~len:(header + 12) (fun b ->
          set_header b ~kind:kind_interior ~n:1 ~first:t.root;
          Bytes.set_int64_le b header sep;
          set_u32 b (header + 8) right);
      t.root <- new_root

(* --- range scans ---------------------------------------------------------------- *)

(* The entries of a leaf image with lo <= key <= hi, copied out, the
   next-leaf link, and whether the scan ends in this leaf (a key above
   [hi], or no next leaf). *)
let leaf_slice b ~lo ~hi =
  let n = nkeys b in
  let keys = ref [] and payloads = ref [] in
  let rec go i pos =
    if i = n then get_u32 b 3 = 0
    else
      let k = Bytes.get_int64_le b pos in
      if k > hi then true
      else begin
        if k >= lo then begin
          keys := k :: !keys;
          payloads := Bytes.sub_string b (pos + 10) (entry_len b pos - 10) :: !payloads
        end;
        go (i + 1) (pos + entry_len b pos)
      end
  in
  let last = go 0 header in
  (List.rev !keys, List.rev !payloads, get_u32 b 3, last)

let iter_range t ~lo ~hi f =
  if lo <= hi then begin
    let rec walk (keys, payloads, next, last) =
      (* the image is released here: [f] may read pages *)
      List.iter2 f keys payloads;
      if not last then
        walk
          (Pager.with_page_image t.pager (next - 1) (fun b ->
               if node_kind b <> kind_leaf then
                 Types.error "btree: leaf chain reaches interior node";
               leaf_slice b ~lo ~hi))
    in
    walk (descend t lo (fun _ b -> leaf_slice b ~lo ~hi))
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
      Pager.with_page_image t.pager pageno (fun b ->
          if node_kind b = kind_leaf then None else Some (child_at b 0))
    with
    | None -> acc
    | Some child -> go child (acc + 1)
  in
  go t.root 1
