type category = Tramp | Mpk | Window | Memcpy | Fault | Ipc | Keymux | Other

let categories = [ Tramp; Mpk; Window; Memcpy; Fault; Ipc; Keymux; Other ]
let ncat = List.length categories

let cat_index = function
  | Tramp -> 0
  | Mpk -> 1
  | Window -> 2
  | Memcpy -> 3
  | Fault -> 4
  | Ipc -> 5
  | Keymux -> 6
  | Other -> 7

let cat_name = function
  | Tramp -> "tramp"
  | Mpk -> "mpk"
  | Window -> "window"
  | Memcpy -> "memcpy"
  | Fault -> "fault"
  | Ipc -> "ipc"
  | Keymux -> "keymux"
  | Other -> "other"

(* The table is keyed core x cubicle x category. The hot path still
   touches exactly one cached row: [cur_row == cores.(cur_core).(cur)],
   refreshed whenever either coordinate moves. The pre-SMP API (rows,
   row, total, ...) sums across cores, so single-core callers see the
   same numbers as before. *)
type t = {
  cores : int array array array;  (* core -> cubicle id -> per-category cycles *)
  mutable cur_core : int;
  mutable cur : int;
  mutable cur_row : int array;  (* == cores.(cur_core).(cur); cached for the hot path *)
}

let initial_rows = 8
let fresh_rows n = Array.init n (fun _ -> Array.make ncat 0)

let create ?(ncores = 1) () =
  if ncores < 1 then invalid_arg "Attrib.create: ncores must be >= 1";
  let cores = Array.init ncores (fun _ -> fresh_rows initial_rows) in
  { cores; cur_core = 0; cur = 0; cur_row = cores.(0).(0) }

let grow_rows t core cid =
  let rows = t.cores.(core) in
  let n = Array.length rows in
  if cid >= n then begin
    let n' = max (cid + 1) (2 * n) in
    t.cores.(core) <- Array.init n' (fun i -> if i < n then rows.(i) else Array.make ncat 0)
  end

let set_current t cid =
  if cid < 0 then invalid_arg "Attrib.set_current: negative cubicle id";
  grow_rows t t.cur_core cid;
  t.cur <- cid;
  t.cur_row <- t.cores.(t.cur_core).(cid)

let set_core t core =
  if core < 0 || core >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Attrib.set_core: no core %d" core);
  t.cur_core <- core;
  grow_rows t core t.cur;
  t.cur_row <- t.cores.(core).(t.cur)

let ncores t = Array.length t.cores

let[@inline] charge t cat n =
  let i = cat_index cat in
  Array.unsafe_set t.cur_row i (Array.unsafe_get t.cur_row i + n)

let row_total r = Array.fold_left ( + ) 0 r

let nrows t = Array.fold_left (fun acc rows -> max acc (Array.length rows)) 0 t.cores

let row t ~cid =
  let r = Array.make ncat 0 in
  if cid >= 0 then
    Array.iter
      (fun rows ->
        if cid < Array.length rows then
          Array.iteri (fun i v -> r.(i) <- r.(i) + v) rows.(cid))
      t.cores;
  r

let rows t =
  let acc = ref [] in
  for cid = nrows t - 1 downto 0 do
    let r = row t ~cid in
    if row_total r > 0 then acc := (cid, r) :: !acc
  done;
  !acc

let total t =
  Array.fold_left
    (fun acc rows -> Array.fold_left (fun acc r -> acc + row_total r) acc rows)
    0 t.cores

let category_total t cat =
  let i = cat_index cat in
  Array.fold_left
    (fun acc rows -> Array.fold_left (fun acc r -> acc + r.(i)) acc rows)
    0 t.cores

(* The per-core view the SMP bench checks against each core's counter. *)
let core_total t ~core =
  if core < 0 || core >= Array.length t.cores then 0
  else Array.fold_left (fun acc r -> acc + row_total r) 0 t.cores.(core)

let reset t = Array.iter (fun rows -> Array.iter (fun r -> Array.fill r 0 ncat 0) rows) t.cores
