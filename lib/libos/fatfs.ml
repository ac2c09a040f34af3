open Cubicle

(* Handles on the symbols this component calls, made once. *)
module Import = struct
  let blk_read = Api.import "blk_read"
  let blk_write = Api.import "blk_write"
  let blk_capacity = Api.import "blk_capacity"
  let vfs_register_backend = Api.import "vfs_register_backend"
end

let sector_size = Blkdev.sector_size
let sectors_per_cluster = 8
let cluster_size = sectors_per_cluster * sector_size
let magic = 0x554B4654 (* "UKFT" *)
let root_entries = 64
let entry_size = 32
let name_max = 23
let eoc = 0xFFFF (* end-of-chain marker *)

type entry = { mutable used : bool; mutable name : string; mutable first : int; mutable size : int }

type state = {
  mutable ctx : Monitor.ctx option;  (* set at init *)
  mutable staging : int;  (* sector staging buffer, windowed to BLKDEV *)
  mutable cluster_buf : int;  (* one-cluster buffer for data I/O *)
  mutable nclusters : int;
  mutable fat : int array;
  mutable root : entry array;
  mutable fat_start : int;
  mutable root_start : int;
  mutable data_start : int;
}

let ctx_exn state =
  match state.ctx with Some c -> c | None -> Types.error "fatfs: not initialised"

(* --- sector I/O through BLKDEV -------------------------------------------- *)

let read_sectors state ~sector ~n ~into =
  let ctx = ctx_exn state in
  (* the device fills our staging page; we then place the bytes where
     the caller of this helper wants them (both are our own memory) *)
  let r = Api.call ctx Import.blk_read [| state.staging; sector; n |] in
  if r <> 0 then Types.error "fatfs: blk_read failed (%d)" r;
  if into <> state.staging then
    Api.memcpy ctx ~dst:into ~src:state.staging ~len:(n * sector_size)

let write_sectors state ~sector ~n ~from =
  let ctx = ctx_exn state in
  if from <> state.staging then
    Api.memcpy ctx ~dst:state.staging ~src:from ~len:(n * sector_size);
  let r = Api.call ctx Import.blk_write [| state.staging; sector; n |] in
  if r <> 0 then Types.error "fatfs: blk_write failed (%d)" r

(* --- metadata (de)serialisation, write-through ----------------------------- *)

let fat_sectors state = (state.nclusters * 2 + sector_size - 1) / sector_size
let root_sectors = root_entries * entry_size / sector_size

let flush_fat_entry state cluster =
  (* write back just the sector of the FAT containing this entry *)
  let byte = cluster * 2 in
  let sec = byte / sector_size in
  let ctx = ctx_exn state in
  let base = sec * (sector_size / 2) in
  for i = 0 to (sector_size / 2) - 1 do
    let v = if base + i < state.nclusters then state.fat.(base + i) else 0 in
    Api.write_u16 ctx (state.staging + (2 * i)) v
  done;
  let r = Api.call ctx Import.blk_write [| state.staging; state.fat_start + sec; 1 |] in
  if r <> 0 then Types.error "fatfs: FAT write-through failed (%d)" r

let encode_entry state slot =
  let e = state.root.(slot) in
  let ctx = ctx_exn state in
  let off = state.cluster_buf + (slot mod (sector_size / entry_size) * entry_size) in
  Api.write_u8 ctx off (if e.used then 1 else 0);
  let name = if String.length e.name > name_max then String.sub e.name 0 name_max else e.name in
  Api.write_string ctx (off + 1) name;
  if String.length name < name_max then
    Api.memset ctx (off + 1 + String.length name) (name_max - String.length name) '\000';
  Api.write_u16 ctx (off + 24) e.first;
  Api.write_u32 ctx (off + 26) e.size;
  Api.write_u16 ctx (off + 30) 0

let flush_root_slot state slot =
  (* read-modify-write the directory sector holding this slot *)
  let per_sector = sector_size / entry_size in
  let sec = slot / per_sector in
  let first_slot = sec * per_sector in
  for s = first_slot to first_slot + per_sector - 1 do
    encode_entry state s
  done;
  write_sectors state ~sector:(state.root_start + sec) ~n:1 ~from:state.cluster_buf

let mkfs state ~capacity_sectors =
  let ctx = ctx_exn state in
  (* choose nclusters to fit: 1 superblock + FAT + root + data *)
  let overhead c = 1 + ((c * 2 + sector_size - 1) / sector_size) + root_sectors in
  let rec fit c = if overhead c + (c * sectors_per_cluster) <= capacity_sectors then c else fit (c - 8) in
  let nclusters = fit (capacity_sectors / sectors_per_cluster) in
  if nclusters < 8 then Types.error "fatfs: disk too small";
  state.nclusters <- nclusters;
  state.fat <- Array.make nclusters 0;
  state.fat.(0) <- eoc (* cluster 0 reserved: 0 means "free" in chains *);
  state.root <- Array.init root_entries (fun _ -> { used = false; name = ""; first = 0; size = 0 });
  state.fat_start <- 1;
  state.root_start <- 1 + fat_sectors state;
  state.data_start <- state.root_start + root_sectors;
  (* superblock *)
  Api.memset ctx state.staging sector_size '\000';
  Api.write_u32 ctx state.staging magic;
  Api.write_u16 ctx (state.staging + 4) nclusters;
  Api.write_u16 ctx (state.staging + 6) root_entries;
  let r = Api.call ctx Import.blk_write [| state.staging; 0; 1 |] in
  if r <> 0 then Types.error "fatfs: superblock write failed";
  for s = 0 to fat_sectors state - 1 do
    flush_fat_entry state (s * (sector_size / 2))
  done;
  for slot = 0 to root_entries - 1 do
    if slot mod (sector_size / entry_size) = 0 then flush_root_slot state slot
  done

let mount state =
  let ctx = ctx_exn state in
  let capacity = Api.call ctx Import.blk_capacity [||] in
  read_sectors state ~sector:0 ~n:1 ~into:state.staging;
  if Api.read_u32 ctx state.staging <> magic then mkfs state ~capacity_sectors:capacity
  else begin
    state.nclusters <- Api.read_u16 ctx (state.staging + 4);
    let nroot = Api.read_u16 ctx (state.staging + 6) in
    if nroot <> root_entries then Types.error "fatfs: unsupported root size %d" nroot;
    state.fat_start <- 1;
    state.root_start <- 1 + fat_sectors state;
    state.data_start <- state.root_start + root_sectors;
    (* load the FAT *)
    state.fat <- Array.make state.nclusters 0;
    for sec = 0 to fat_sectors state - 1 do
      read_sectors state ~sector:(state.fat_start + sec) ~n:1 ~into:state.staging;
      for i = 0 to (sector_size / 2) - 1 do
        let c = (sec * (sector_size / 2)) + i in
        if c < state.nclusters then state.fat.(c) <- Api.read_u16 ctx (state.staging + (2 * i))
      done
    done;
    (* load the root directory *)
    state.root <- Array.init root_entries (fun _ -> { used = false; name = ""; first = 0; size = 0 });
    let per_sector = sector_size / entry_size in
    for sec = 0 to root_sectors - 1 do
      read_sectors state ~sector:(state.root_start + sec) ~n:1 ~into:state.staging;
      for i = 0 to per_sector - 1 do
        let slot = (sec * per_sector) + i in
        let off = state.staging + (i * entry_size) in
        let e = state.root.(slot) in
        e.used <- Api.read_u8 ctx off = 1;
        if e.used then begin
          let raw = Api.read_string ctx (off + 1) name_max in
          e.name <- (match String.index_opt raw '\000' with Some z -> String.sub raw 0 z | None -> raw);
          e.first <- Api.read_u16 ctx (off + 24);
          e.size <- Api.read_u32 ctx (off + 26)
        end
      done
    done
  end

(* --- cluster chains -------------------------------------------------------- *)

let cluster_sector state c = state.data_start + (c * sectors_per_cluster)

let alloc_cluster state =
  let rec scan c =
    if c >= state.nclusters then Types.error "fatfs: disk full"
    else if state.fat.(c) = 0 then begin
      state.fat.(c) <- eoc;
      flush_fat_entry state c;
      (* zero the fresh cluster *)
      Api.memset (ctx_exn state) state.cluster_buf cluster_size '\000';
      write_sectors state ~sector:(cluster_sector state c) ~n:sectors_per_cluster
        ~from:state.cluster_buf;
      c
    end
    else scan (c + 1)
  in
  scan 1

(* cluster number holding byte offset [off] of the file, extending the
   chain when [grow] *)
let rec chain_at state e ~off ~grow =
  let idx = off / cluster_size in
  if e.first = 0 then
    if grow then begin
      e.first <- alloc_cluster state;
      chain_at state e ~off ~grow
    end
    else 0
  else begin
    let rec walk c i =
      if i = 0 then c
      else if state.fat.(c) = eoc then
        if grow then begin
          let next = alloc_cluster state in
          state.fat.(c) <- next;
          flush_fat_entry state c;
          walk next (i - 1)
        end
        else 0
      else walk state.fat.(c) (i - 1)
    in
    walk e.first idx
  end

let free_chain state first =
  let rec go c =
    if c <> 0 && c <> eoc then begin
      let next = state.fat.(c) in
      state.fat.(c) <- 0;
      flush_fat_entry state c;
      go next
    end
  in
  go first

(* --- directory -------------------------------------------------------------- *)

let find_slot state name =
  let rec go i =
    if i >= root_entries then None
    else if state.root.(i).used && state.root.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let free_slot state =
  let rec go i =
    if i >= root_entries then Types.error "fatfs: root directory full"
    else if not state.root.(i).used then i
    else go (i + 1)
  in
  go 0

let read_name ctx ptr len =
  let s = Api.read_string ctx ptr len in
  if String.length s > name_max then String.sub s 0 name_max else s

(* --- the fs_ops exports -------------------------------------------------------- *)

let lookup_fn state ctx (args : int array) =
  match find_slot state (read_name ctx args.(0) args.(1)) with
  | Some slot -> slot + 1
  | None -> Sysdefs.enoent

let create_fn state ctx (args : int array) =
  let name = read_name ctx args.(0) args.(1) in
  match find_slot state name with
  | Some _ -> Sysdefs.eexist
  | None ->
      let slot = free_slot state in
      let e = state.root.(slot) in
      e.used <- true;
      e.name <- name;
      e.first <- 0;
      e.size <- 0;
      flush_root_slot state slot;
      slot + 1

let with_ino state ino f =
  let slot = ino - 1 in
  if slot < 0 || slot >= root_entries || not state.root.(slot).used then Sysdefs.ebadf
  else f slot state.root.(slot)

let read_iodesc ctx desc =
  (Api.read_u32 ctx desc, Api.read_u32 ctx (desc + 4), Int64.to_int (Api.read_i64 ctx (desc + 8)))

(* copy between the caller's buffer and the file, one cluster piece at a
   time through [cluster_buf] *)
let cluster_io state ctx e ~buf ~len ~off ~write =
  let rec step done_ =
    if done_ >= len then done_
    else begin
      let pos = off + done_ in
      let coff = pos mod cluster_size in
      let n = min (len - done_) (cluster_size - coff) in
      let c = chain_at state e ~off:pos ~grow:write in
      if write then begin
        if n < cluster_size then
          (* read-modify-write of a partial cluster *)
          read_sectors state ~sector:(cluster_sector state c) ~n:sectors_per_cluster
            ~into:state.cluster_buf;
        Api.memcpy ctx ~dst:(state.cluster_buf + coff) ~src:(buf + done_) ~len:n;
        write_sectors state ~sector:(cluster_sector state c) ~n:sectors_per_cluster
          ~from:state.cluster_buf
      end
      else if c = 0 then Api.memset ctx (buf + done_) n '\000'
      else begin
        read_sectors state ~sector:(cluster_sector state c) ~n:sectors_per_cluster
          ~into:state.cluster_buf;
        Api.memcpy ctx ~dst:(buf + done_) ~src:(state.cluster_buf + coff) ~len:n
      end;
      step (done_ + n)
    end
  in
  step 0

let pread_fn state ctx (args : int array) =
  let ino, len, off = read_iodesc ctx args.(0) in
  with_ino state ino (fun _slot e ->
      if off >= e.size then 0
      else cluster_io state ctx e ~buf:args.(1) ~len:(min len (e.size - off)) ~off ~write:false)

let pwrite_fn state ctx (args : int array) =
  let ino, len, off = read_iodesc ctx args.(0) in
  with_ino state ino (fun slot e ->
      let n = cluster_io state ctx e ~buf:args.(1) ~len ~off ~write:true in
      if off + n > e.size then begin
        e.size <- off + n;
        flush_root_slot state slot
      end;
      n)

let size_fn state _ctx (args : int array) = with_ino state args.(0) (fun _ e -> e.size)

let truncate_fn state ctx (args : int array) =
  with_ino state args.(0) (fun slot e ->
      let new_size = args.(1) in
      if new_size < e.size then begin
        let keep = (new_size + cluster_size - 1) / cluster_size in
        if keep = 0 then begin
          free_chain state e.first;
          e.first <- 0
        end
        else begin
          (* cut the chain after [keep] clusters *)
          let rec cut c i =
            if i = keep - 1 then begin
              let tail = state.fat.(c) in
              state.fat.(c) <- eoc;
              flush_fat_entry state c;
              free_chain state tail
            end
            else cut state.fat.(c) (i + 1)
          in
          if e.first <> 0 then cut e.first 0;
          (* zero the tail of the boundary cluster on disk so a later
             extension reads zeroes (POSIX truncate semantics) *)
          let coff = new_size mod cluster_size in
          if coff > 0 && e.first <> 0 then begin
            let c = chain_at state e ~off:(new_size - 1) ~grow:false in
            if c <> 0 then begin
              read_sectors state ~sector:(cluster_sector state c) ~n:sectors_per_cluster
                ~into:state.cluster_buf;
              Api.memset ctx (state.cluster_buf + coff) (cluster_size - coff) '\000';
              write_sectors state ~sector:(cluster_sector state c) ~n:sectors_per_cluster
                ~from:state.cluster_buf
            end
          end
        end
      end;
      e.size <- new_size;
      flush_root_slot state slot;
      Sysdefs.ok)

let fsync_fn _state ctx (_args : int array) =
  (* metadata is write-through; charge the device flush *)
  Hw.Cost.charge (Monitor.cost ctx.Monitor.mon) Sysdefs.fsync_cycles;
  Sysdefs.ok

let unlink_fn state ctx (args : int array) =
  match find_slot state (read_name ctx args.(0) args.(1)) with
  | None -> Sysdefs.enoent
  | Some slot ->
      let e = state.root.(slot) in
      free_chain state e.first;
      e.used <- false;
      e.first <- 0;
      e.size <- 0;
      flush_root_slot state slot;
      Sysdefs.ok

let rename_fn state ctx (args : int array) =
  let old_name = read_name ctx args.(0) args.(1) in
  let new_name = read_name ctx args.(2) args.(3) in
  match find_slot state old_name with
  | None -> Sysdefs.enoent
  | Some slot ->
      (match find_slot state new_name with
      | Some target when target <> slot ->
          let te = state.root.(target) in
          free_chain state te.first;
          te.used <- false;
          flush_root_slot state target
      | _ -> ());
      state.root.(slot).name <- new_name;
      flush_root_slot state slot;
      Sysdefs.ok

let init state ctx =
  state.ctx <- Some ctx;
  state.staging <- Api.malloc_page_aligned ctx Hw.Addr.page_size;
  state.cluster_buf <- Api.malloc_page_aligned ctx cluster_size;
  (* standing windows: BLKDEV reads/fills the staging buffer *)
  let blk = Api.cid_of ctx "BLKDEV" in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:state.staging ~size:Hw.Addr.page_size;
  Api.window_open ctx wid blk;
  mount state;
  ignore (Api.call ctx Import.vfs_register_backend [| 2 |])

let make () =
  let state =
    {
      ctx = None;
      staging = 0;
      cluster_buf = 0;
      nclusters = 0;
      fat = [||];
      root = [||];
      fat_start = 1;
      root_start = 0;
      data_start = 0;
    }
  in
  let comp =
    Builder.component "UKFAT" ~code_ops:1024 ~heap_pages:8 ~stack_pages:4 ~init:(init state)
      ~exports:
        [
          Builder.export ~derefs:[ 0 ] "fatfs_lookup" (lookup_fn state) [];
          Builder.export ~derefs:[ 0 ] "fatfs_create" (create_fn state) [];
          Builder.export ~derefs:[ 0; 1 ] ~writes:[ 1 ] "fatfs_pread" (pread_fn state) [];
          Builder.export ~derefs:[ 0; 1 ] "fatfs_pwrite" (pwrite_fn state) [];
          Builder.export "fatfs_size" (size_fn state) [];
          Builder.export "fatfs_truncate" (truncate_fn state) [];
          Builder.export "fatfs_fsync" (fsync_fn state) [];
          Builder.export ~derefs:[ 0 ] "fatfs_unlink" (unlink_fn state) [];
          Builder.export ~derefs:[ 0; 2 ] ~stack_bytes:16 "fatfs_rename" (rename_fn state) [];
        ]
  in
  (state, comp)

let file_count state = Array.fold_left (fun acc e -> if e.used then acc + 1 else acc) 0 state.root
let free_clusters state = Array.fold_left (fun acc v -> if v = 0 then acc + 1 else acc) 0 state.fat
