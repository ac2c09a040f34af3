open Cubicle

let page_size = 4096

type journal_mode = Rollback | Wal

let wal_record = 4 + page_size  (* [pageno u32][page data] *)
let wal_autocheckpoint = 1000  (* records *)

type frame = {
  id : int;  (* index in [pool] and in the LRU links *)
  addr : int;
  mem : Hw.Phys_mem.t;  (* the machine's memory, which [addr] indexes *)
  mutable pageno : int;  (* -1 while spare *)
  mutable dirty : bool;
  mutable pins : int;
  mutable offs : int array;  (* the leaf offset memo, see [with_page_view] *)
  mutable nent : int;  (* entries memoised in [offs]; -1 = unknown *)
}

(* A frame is its own view: the codec reads and edits nodes in place. *)
type view = frame

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable page_reads : int;
  mutable page_writes : int;
  mutable commits : int;
  mutable rollbacks : int;
}

type t = {
  os : Os_iface.t;
  path : string;
  journal_path : string;
  mode : journal_mode;
  mutable wal_fd : int;
  wal_path : string;
  wal_index : int Mm.Int_tbl.t;  (* pageno -> offset of newest wal copy *)
  mutable wal_off : int;  (* append cursor *)
  mutable txn_wal_start : int;
  fd : int;
  cache_pages : int;
  none : frame;  (* the empty slot of [slots] and [pool] *)
  mutable slots : frame array;  (* pageno -> its cached frame, or [none] *)
  pool : frame array;  (* id -> frame; ids from [allocated_frames] up are [none] *)
  lru_next : int array;  (* id -> the next colder frame's id *)
  lru_prev : int array;  (* id -> the next hotter frame's id *)
  mutable free_frames : frame list;  (* spare frames *)
  mutable allocated_frames : int;
  mutable npages : int;
  mutable txn : bool;
  journaled : unit Mm.Int_tbl.t;
  mutable jfd : int;
  mutable joff : int;
  mutable txn_orig_npages : int;
  scratch : int;  (* small buffer for journal record headers *)
  mutable view_page : int;  (* the page a view is held for, or -1 *)
  st : stats;
}

let stats t = t.st
let page_count t = t.npages
let cached_pages t =
  Array.fold_left (fun acc f -> if f.pageno < 0 then acc else f.pageno :: acc) [] t.pool
  |> List.sort compare

let cached_views t =
  Array.fold_left (fun acc f -> if f.pageno < 0 then acc else (f.pageno, f) :: acc) [] t.pool
  |> List.sort (fun (a, _) (b, _) -> compare a b)
let ctx t = t.os.Os_iface.ctx

let[@inline] emit_pager t op =
  let b = Hw.Cpu.bus (ctx t).Monitor.cpu in
  if b.Telemetry.Bus.tracing then Telemetry.Bus.emit b (Telemetry.Event.Pager op)
let wal_pages t = t.wal_off / wal_record

let open_db ?(cache_pages = 64) ?(journal_mode = Rollback) (os : Os_iface.t) ~path =
  let fd = os.open_file path ~create:true in
  if fd < 0 then Types.error "pager: cannot open %s (%d)" path fd;
  let size = os.file_size fd in
  let scratch = Api.malloc_page_aligned os.ctx 64 in
  let wal_path = path ^ "-wal" in
  let wal_fd, wal_off, wal_index, wal_max_page =
    match journal_mode with
    | Rollback -> (-1, 0, Mm.Int_tbl.create 1, -1)
    | Wal ->
        let wfd = os.open_file wal_path ~create:true in
        if wfd < 0 then Types.error "pager: cannot open WAL (%d)" wfd;
        (* recover: rebuild the index from any records left behind *)
        let index = Mm.Int_tbl.create 64 in
        let wsize = os.file_size wfd in
        let max_page = ref (-1) in
        let off = ref 0 in
        while !off + wal_record <= wsize do
          let n = os.pread ~fd:wfd ~buf:scratch ~len:4 ~off:!off in
          if n <> 4 then Types.error "pager: corrupt WAL header";
          let pageno = Api.read_u32 os.ctx scratch in
          Mm.Int_tbl.replace index pageno !off;
          if pageno > !max_page then max_page := pageno;
          off := !off + wal_record
        done;
        (wfd, !off, index, !max_page)
  in
  let cache_pages = max 4 cache_pages in
  let npages = max ((size + page_size - 1) / page_size) (wal_max_page + 1) in
  let none =
    {
      id = -1;
      addr = 0;
      mem = Hw.Cpu.mem os.ctx.Monitor.cpu;
      pageno = -1;
      dirty = false;
      pins = 0;
      offs = [||];
      nent = -1;
    }
  in
  {
    os;
    path;
    journal_path = path ^ "-journal";
    mode = journal_mode;
    wal_fd;
    wal_path;
    wal_index;
    wal_off;
    txn_wal_start = 0;
    fd;
    cache_pages;
    none;
    slots = Array.make (max 64 npages) none;
    pool = Array.make cache_pages none;
    (* a ring through the cached frames, hottest first, closed by the
       head entry [cache_pages] *)
    lru_next = Array.make (cache_pages + 1) cache_pages;
    lru_prev = Array.make (cache_pages + 1) cache_pages;
    free_frames = [];
    allocated_frames = 0;
    npages;
    txn = false;
    journaled = Mm.Int_tbl.create 64;
    jfd = -1;
    joff = 0;
    txn_orig_npages = 0;
    scratch;
    view_page = -1;
    st =
      {
        hits = 0;
        misses = 0;
        evictions = 0;
        page_reads = 0;
        page_writes = 0;
        commits = 0;
        rollbacks = 0;
      };
  }

let check_pageno t pageno =
  if pageno < 0 || pageno >= t.npages then
    Types.error "pager: page %d out of range (file has %d)" pageno t.npages

let writeback t frame =
  t.st.page_writes <- t.st.page_writes + 1;
  emit_pager t Telemetry.Event.Page_write;
  (match t.mode with
  | Rollback ->
      let n =
        t.os.pwrite ~fd:t.fd ~buf:frame.addr ~len:page_size ~off:(frame.pageno * page_size)
      in
      if n <> page_size then Types.error "pager: short page write (%d)" n
  | Wal ->
      (* append-only: [pageno][data] at the log cursor *)
      Api.write_u32 (ctx t) t.scratch frame.pageno;
      let n = t.os.pwrite ~fd:t.wal_fd ~buf:t.scratch ~len:4 ~off:t.wal_off in
      if n <> 4 then Types.error "pager: WAL header write failed";
      let n =
        t.os.pwrite ~fd:t.wal_fd ~buf:frame.addr ~len:page_size ~off:(t.wal_off + 4)
      in
      if n <> page_size then Types.error "pager: WAL data write failed";
      Mm.Int_tbl.replace t.wal_index frame.pageno t.wal_off;
      t.wal_off <- t.wal_off + wal_record;
      emit_pager t Telemetry.Event.Wal_append);
  frame.dirty <- false

(* LRU bookkeeping: the cached frames form a ring through [lru_next]
   and [lru_prev], hottest first, so a touch relinks one frame at the
   hot end in O(1) and the victim is the first unpinned frame from the
   cold end. The links are ints in arrays: relinking writes no pointer. *)
let unlink t f =
  let p = t.lru_prev.(f.id) and n = t.lru_next.(f.id) in
  t.lru_next.(p) <- n;
  t.lru_prev.(n) <- p

let link_hot t f =
  let head = t.cache_pages in
  let n = t.lru_next.(head) in
  t.lru_next.(f.id) <- n;
  t.lru_prev.(f.id) <- head;
  t.lru_prev.(n) <- f.id;
  t.lru_next.(head) <- f.id

let touch t f =
  unlink t f;
  link_hot t f

let rec lru_victim t id =
  if id = t.cache_pages || t.pool.(id).pins = 0 then id else lru_victim t t.lru_prev.(id)

(* A spare frame for a new page: a freed one, a fresh buffer while under
   capacity, or the least recently used unpinned frame, evicted (and
   spilled if dirty). *)
let acquire_frame t =
  match t.free_frames with
  | f :: rest ->
      t.free_frames <- rest;
      f
  | [] ->
      if t.allocated_frames < t.cache_pages then begin
        let id = t.allocated_frames in
        t.allocated_frames <- id + 1;
        let addr = Api.malloc_page_aligned t.os.ctx page_size in
        let f = { t.none with id; addr } in
        t.pool.(id) <- f;
        f
      end
      else begin
        let id = lru_victim t t.lru_prev.(t.cache_pages) in
        if id = t.cache_pages then Types.error "pager: all %d cache frames pinned" t.cache_pages;
        let f = t.pool.(id) in
        if f.dirty then writeback t f;
        unlink t f;
        t.slots.(f.pageno) <- t.none;
        t.st.evictions <- t.st.evictions + 1;
        emit_pager t Telemetry.Event.Evict;
        f
      end

(* Cache [f] as [pageno]'s frame, hottest. Its bytes are new, so its
   offset memo is forgotten. *)
let install t f pageno ~dirty =
  f.nent <- -1;
  f.pageno <- pageno;
  f.dirty <- dirty;
  t.slots.(pageno) <- f;
  link_hot t f

(* Uncache [f] and keep it as a spare. *)
let drop t f =
  unlink t f;
  t.slots.(f.pageno) <- t.none;
  f.pageno <- -1;
  f.dirty <- false;
  t.free_frames <- f :: t.free_frames

let load_frame t pageno =
  let f = t.slots.(pageno) in
  if f != t.none then begin
    t.st.hits <- t.st.hits + 1;
    emit_pager t Telemetry.Event.Cache_hit;
    touch t f;
    f
  end
  else begin
    t.st.misses <- t.st.misses + 1;
    emit_pager t Telemetry.Event.Cache_miss;
    let f = acquire_frame t in
    t.st.page_reads <- t.st.page_reads + 1;
    emit_pager t Telemetry.Event.Page_read;
    let n =
      match
        if t.mode = Wal then Mm.Int_tbl.find_opt t.wal_index pageno else None
      with
      | Some woff -> t.os.pread ~fd:t.wal_fd ~buf:f.addr ~len:page_size ~off:(woff + 4)
      | None -> t.os.pread ~fd:t.fd ~buf:f.addr ~len:page_size ~off:(pageno * page_size)
    in
    (* a fresh page at EOF reads short: zero-fill the tail *)
    if n < page_size then Api.memset t.os.ctx (f.addr + n) (page_size - n) '\000';
    install t f pageno ~dirty:false;
    f
  end

let with_pinned t pageno f =
  check_pageno t pageno;
  let frame = load_frame t pageno in
  frame.pins <- frame.pins + 1;
  match f frame with
  | v ->
      frame.pins <- frame.pins - 1;
      v
  | exception e ->
      frame.pins <- frame.pins - 1;
      raise e

(* A raw callback may store anything in the frame: its memo is
   forgotten. *)
let read_page t pageno f =
  with_pinned t pageno (fun frame ->
      frame.nent <- -1;
      f frame.addr)

(* --- frame views -------------------------------------------------------------

   The B-tree codec reads and edits nodes in place in their cache
   frames. A visit pins the frame and makes the same checked, charged
   [page_size] read that copying the frame out would, without the copy
   ([Api.check_read]); a write makes the checked, charged store of its
   [len] bytes ([Api.check_write]) before [fill] stores them in place.
   Every accessor checks its offset against the page, so a corrupt node
   raises rather than reach a neighbouring frame.

   Each frame memoises the entry offsets of the leaf it holds ([offs],
   [nent]; the codec fills it in). The memo is forgotten whenever the
   frame's bytes may change behind the codec: on [install] (a load, an
   allocation, a reused frame), in the raw [read_page] and [write_page]
   callbacks and before every view write's [fill]. The codec revalidates
   it after an in-place edit.

   [view_page] is the page a view is held for, or -1. A page access from
   inside a view's callback is refused, except a write of the page being
   viewed: a scan's callback must not run while a view is held. *)

let[@inline never] outside v off n =
  Types.error "pager: access [%d, +%d) outside page %d" off n v.pageno

let[@inline] in_page v off n = if off < 0 || off > page_size - n then outside v off n
let[@inline] get_u8 v off = in_page v off 1; Hw.Phys_mem.unsafe_get_u8 v.mem (v.addr + off)
let[@inline] get_u16 v off = in_page v off 2; Hw.Phys_mem.unsafe_get_u16 v.mem (v.addr + off)
let[@inline] get_u32 v off = in_page v off 4; Hw.Phys_mem.unsafe_get_u32 v.mem (v.addr + off)
let[@inline] get_i64 v off = in_page v off 8; Hw.Phys_mem.unsafe_get_i64 v.mem (v.addr + off)
let[@inline] set_u8 v off x = in_page v off 1; Hw.Phys_mem.unsafe_set_u8 v.mem (v.addr + off) x
let[@inline] set_u16 v off x = in_page v off 2; Hw.Phys_mem.unsafe_set_u16 v.mem (v.addr + off) x
let[@inline] set_u32 v off x = in_page v off 4; Hw.Phys_mem.unsafe_set_u32 v.mem (v.addr + off) x
let[@inline] set_i64 v off x = in_page v off 8; Hw.Phys_mem.unsafe_set_i64 v.mem (v.addr + off) x

let sub_bytes v off len =
  in_page v off len;
  Hw.Phys_mem.read_bytes v.mem (v.addr + off) len

let sub_string v off len = Bytes.unsafe_to_string (sub_bytes v off len)

let set_string v off s =
  in_page v off (String.length s);
  Hw.Phys_mem.write_string v.mem (v.addr + off) s

let set_bytes v off b ~pos ~len =
  in_page v off len;
  Hw.Phys_mem.write_sub v.mem (v.addr + off) b ~pos ~len

let blit v ~src ~dst ~len =
  in_page v src len;
  in_page v dst len;
  Hw.Phys_mem.blit v.mem ~src:(v.addr + src) ~dst:(v.addr + dst) ~len

let[@inline] memo_count v = v.nent
let[@inline] memo v = v.offs

let set_memo v offs n =
  v.offs <- offs;
  v.nent <- n

let hold_view t pageno f =
  if t.view_page >= 0 then Types.error "pager: page image re-entered";
  t.view_page <- pageno;
  match f () with
  | v ->
      t.view_page <- -1;
      v
  | exception e ->
      t.view_page <- -1;
      raise e

let with_page_view t pageno f =
  hold_view t pageno (fun () ->
      with_pinned t pageno (fun frame ->
          Api.check_read (ctx t) frame.addr page_size;
          f frame))

(* Append the current (pre-modification) content of a page to the
   rollback journal: a [pageno] header then the 4 KiB of data. *)
let journal_page t frame =
  if t.mode = Rollback && t.txn && not (Mm.Int_tbl.mem t.journaled frame.pageno) then begin
    Api.write_u32 t.os.ctx t.scratch frame.pageno;
    let n = t.os.pwrite ~fd:t.jfd ~buf:t.scratch ~len:4 ~off:t.joff in
    if n <> 4 then Types.error "pager: journal header write failed";
    let n = t.os.pwrite ~fd:t.jfd ~buf:frame.addr ~len:page_size ~off:(t.joff + 4) in
    if n <> page_size then Types.error "pager: journal data write failed";
    t.joff <- t.joff + 4 + page_size;
    Mm.Int_tbl.replace t.journaled frame.pageno ()
  end

let write_frame t pageno f =
  with_pinned t pageno (fun frame ->
      journal_page t frame;
      frame.dirty <- true;
      f frame)

let write_page t pageno f =
  write_frame t pageno (fun frame ->
      frame.nent <- -1;
      f frame.addr)

let write_page_view t pageno ~len fill =
  if len < 0 || len > page_size then
    Types.error "pager: write length %d exceeds page" len;
  let write () =
    write_frame t pageno (fun frame ->
        Api.check_write (ctx t) frame.addr len;
        frame.nent <- -1;
        fill frame;
        (* keep the rest of the page deterministic *)
        if len < page_size then
          Api.memset (ctx t) (frame.addr + len) (page_size - len) '\000')
  in
  if t.view_page = pageno then write () else hold_view t pageno write

let allocate_page t =
  let pageno = t.npages in
  t.npages <- t.npages + 1;
  let len = Array.length t.slots in
  if pageno = len then
    t.slots <- Array.init (2 * len) (fun i -> if i < len then t.slots.(i) else t.none);
  (* materialise a zeroed cached frame; the file grows on writeback *)
  let f = acquire_frame t in
  Api.memset t.os.ctx f.addr page_size '\000';
  install t f pageno ~dirty:true;
  (if t.txn then Mm.Int_tbl.replace t.journaled pageno ());
  pageno

let begin_txn t =
  if t.txn then Types.error "pager: nested transaction";
  (match t.mode with
  | Rollback ->
      let jfd = t.os.open_file t.journal_path ~create:true in
      if jfd < 0 then Types.error "pager: cannot create journal (%d)" jfd;
      t.jfd <- jfd;
      t.joff <- 0
  | Wal -> t.txn_wal_start <- t.wal_off);
  t.txn <- true;
  t.txn_orig_npages <- t.npages;
  Mm.Int_tbl.reset t.journaled

(* In frame order: each page lands at its own offset, so the order
   moves no byte and no simulated cycle. *)
let flush t = Array.iter (fun f -> if f.dirty then writeback t f) t.pool

let end_txn t =
  (match t.mode with
  | Rollback ->
      ignore (t.os.close_file t.jfd);
      ignore (t.os.unlink t.journal_path);
      t.jfd <- -1
  | Wal -> ());
  t.txn <- false;
  Mm.Int_tbl.reset t.journaled

(* Fold the newest copy of every logged page back into the database
   file and truncate the log. *)
let checkpoint t =
  if t.txn then Types.error "pager: checkpoint inside transaction";
  if t.mode = Wal && Mm.Int_tbl.length t.wal_index > 0 then begin
    emit_pager t Telemetry.Event.Checkpoint;
    let buf = Api.malloc_page_aligned (ctx t) page_size in
    Mm.Int_tbl.iter
      (fun pageno woff ->
        let n = t.os.pread ~fd:t.wal_fd ~buf ~len:page_size ~off:(woff + 4) in
        if n <> page_size then Types.error "pager: WAL read during checkpoint failed";
        let w = t.os.pwrite ~fd:t.fd ~buf ~len:page_size ~off:(pageno * page_size) in
        if w <> page_size then Types.error "pager: checkpoint write failed")
      t.wal_index;
    Api.free (ctx t) buf;
    ignore (t.os.fsync t.fd);
    ignore (t.os.truncate ~fd:t.wal_fd ~size:0);
    ignore (t.os.fsync t.wal_fd);
    t.wal_off <- 0;
    Mm.Int_tbl.reset t.wal_index
  end

let commit t =
  if not t.txn then Types.error "pager: commit outside transaction";
  (match t.mode with
  | Rollback ->
      ignore (t.os.fsync t.jfd);
      flush t;
      ignore (t.os.fsync t.fd)
  | Wal ->
      flush t;
      ignore (t.os.fsync t.wal_fd));
  t.st.commits <- t.st.commits + 1;
  emit_pager t Telemetry.Event.Commit;
  end_txn t;
  if t.mode = Wal && t.wal_off / wal_record > wal_autocheckpoint then checkpoint t

let rebuild_wal_index t upto =
  Mm.Int_tbl.reset t.wal_index;
  let off = ref 0 in
  while !off + wal_record <= upto do
    let n = t.os.pread ~fd:t.wal_fd ~buf:t.scratch ~len:4 ~off:!off in
    if n <> 4 then Types.error "pager: corrupt WAL during rollback";
    Mm.Int_tbl.replace t.wal_index (Api.read_u32 (ctx t) t.scratch) !off;
    off := !off + wal_record
  done

(* Uncache every frame satisfying [p]. *)
let drop_where t p = Array.iter (fun f -> if f.pageno >= 0 && p f then drop t f) t.pool

let rollback t =
  if not t.txn then Types.error "pager: rollback outside transaction";
  drop_where t (fun f -> f.dirty);
  (match t.mode with
  | Wal ->
      (* discard any records this transaction spilled *)
      if t.wal_off > t.txn_wal_start then begin
        ignore (t.os.truncate ~fd:t.wal_fd ~size:t.txn_wal_start);
        t.wal_off <- t.txn_wal_start;
        rebuild_wal_index t t.txn_wal_start;
        (* clean frames may cache data from discarded records *)
        drop_where t (fun f -> f.pins = 0)
      end
  | Rollback ->
      (* replay the journal into the file, dropping replayed pages' frames *)
      let jsize = t.joff in
      let buf = Api.malloc_page_aligned t.os.ctx page_size in
      let rec replay off =
        if off < jsize then begin
          let n = t.os.pread ~fd:t.jfd ~buf:t.scratch ~len:4 ~off in
          if n <> 4 then Types.error "pager: corrupt journal";
          let pageno = Api.read_u32 t.os.ctx t.scratch in
          let n = t.os.pread ~fd:t.jfd ~buf ~len:page_size ~off:(off + 4) in
          if n <> page_size then Types.error "pager: corrupt journal data";
          let w = t.os.pwrite ~fd:t.fd ~buf ~len:page_size ~off:(pageno * page_size) in
          if w <> page_size then Types.error "pager: journal replay write failed";
          if t.slots.(pageno) != t.none then drop t t.slots.(pageno);
          replay (off + 4 + page_size)
        end
      in
      replay 0;
      Api.free t.os.ctx buf);
  (* pages the transaction allocated are gone, spilled and re-read ones too *)
  drop_where t (fun f -> f.pageno >= t.txn_orig_npages);
  t.npages <- t.txn_orig_npages;
  if t.mode = Rollback then ignore (t.os.truncate ~fd:t.fd ~size:(t.npages * page_size));
  t.st.rollbacks <- t.st.rollbacks + 1;
  emit_pager t Telemetry.Event.Rollback;
  end_txn t

let close t =
  if t.txn then Types.error "pager: close inside transaction";
  flush t;
  if t.mode = Wal then begin
    checkpoint t;
    ignore (t.os.close_file t.wal_fd);
    ignore (t.os.unlink t.wal_path)
  end;
  ignore (t.os.close_file t.fd);
  (* hand the cache frames and the header scratch back to the heap:
     every open allocates them afresh *)
  let frames = Array.fold_left (fun acc f -> if f == t.none then acc else f.addr :: acc) [] t.pool in
  List.iter (Api.free (ctx t)) (List.sort compare frames);
  Api.free (ctx t) t.scratch;
  Array.fill t.pool 0 t.cache_pages t.none;
  t.slots <- [||];
  t.free_frames <- []
