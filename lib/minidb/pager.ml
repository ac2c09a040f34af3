open Cubicle

let page_size = 4096

type journal_mode = Rollback | Wal

let wal_record = 4 + page_size  (* [pageno u32][page data] *)
let wal_autocheckpoint = 1000  (* records *)

type frame = {
  id : int;  (* index in [pool] and in the LRU links *)
  addr : int;
  mutable pageno : int;  (* -1 while spare *)
  mutable dirty : bool;
  mutable pins : int;
}

(* The empty slot of [slots] and [pool]. *)
let none = { id = -1; addr = 0; pageno = -1; dirty = false; pins = 0 }

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
  image : Bytes.t;  (* host copy of one page, see [with_page_image] *)
  mutable image_page : int;
  st : stats;
}

let stats t = t.st
let page_count t = t.npages
let cached_pages t =
  Array.fold_left (fun acc f -> if f.pageno < 0 then acc else f.pageno :: acc) [] t.pool
  |> List.sort compare
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
    image = Bytes.create page_size;
    image_page = -1;
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
        let f = { id; addr; pageno = -1; dirty = false; pins = 0 } in
        t.pool.(id) <- f;
        f
      end
      else begin
        let id = lru_victim t t.lru_prev.(t.cache_pages) in
        if id = t.cache_pages then Types.error "pager: all %d cache frames pinned" t.cache_pages;
        let f = t.pool.(id) in
        if f.dirty then writeback t f;
        unlink t f;
        t.slots.(f.pageno) <- none;
        t.st.evictions <- t.st.evictions + 1;
        emit_pager t Telemetry.Event.Evict;
        f
      end

(* Cache [f] as [pageno]'s frame, hottest. *)
let install t f pageno ~dirty =
  f.pageno <- pageno;
  f.dirty <- dirty;
  t.slots.(pageno) <- f;
  link_hot t f

(* Uncache [f] and keep it as a spare. *)
let drop t f =
  unlink t f;
  t.slots.(f.pageno) <- none;
  f.pageno <- -1;
  f.dirty <- false;
  t.free_frames <- f :: t.free_frames

let load_frame t pageno =
  let f = t.slots.(pageno) in
  if f != none then begin
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
  Fun.protect ~finally:(fun () -> frame.pins <- frame.pins - 1) (fun () -> f frame)

let read_page t pageno f = with_pinned t pageno (fun frame -> f frame.addr)

(* The page image is the one host buffer the B-tree codec works in: a
   read copies the whole frame into it (the same checked, charged
   [page_size] read a fresh [Bytes] copy would cost), a write encodes
   into it and copies the encoded prefix back. [image_page] is the page
   the image is held for, or -1. The buffer is reused by the next page
   access, so nothing may keep a view into it after the callback
   returns, and a page access from inside the callback is refused
   rather than allowed to overwrite the bytes being read — except a
   write of the page being read, which edits the image in place. *)
let hold_image t pageno f =
  if t.image_page >= 0 then Types.error "pager: page image re-entered";
  t.image_page <- pageno;
  match f () with
  | v ->
      t.image_page <- -1;
      v
  | exception e ->
      t.image_page <- -1;
      raise e

let with_page_image t pageno f =
  hold_image t pageno (fun () ->
      with_pinned t pageno (fun frame ->
          Api.read_into (ctx t) frame.addr t.image ~pos:0 ~len:page_size;
          f t.image))

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

let write_page t pageno f =
  with_pinned t pageno (fun frame ->
      journal_page t frame;
      frame.dirty <- true;
      f frame.addr)

let write_page_image t pageno ~len fill =
  if len < 0 || len > page_size then
    Types.error "pager: image length %d exceeds page" len;
  let write () =
    write_page t pageno (fun addr ->
        fill t.image;
        Api.write_sub (ctx t) addr t.image ~pos:0 ~len;
        (* keep the rest of the page deterministic *)
        if len < page_size then Api.memset (ctx t) (addr + len) (page_size - len) '\000')
  in
  if t.image_page = pageno then write () else hold_image t pageno write

let allocate_page t =
  let pageno = t.npages in
  t.npages <- t.npages + 1;
  let len = Array.length t.slots in
  if pageno = len then
    t.slots <- Array.init (2 * len) (fun i -> if i < len then t.slots.(i) else none);
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
          if t.slots.(pageno) != none then drop t t.slots.(pageno);
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
  let frames = Array.fold_left (fun acc f -> if f == none then acc else f.addr :: acc) [] t.pool in
  List.iter (Api.free (ctx t)) (List.sort compare frames);
  Api.free (ctx t) t.scratch;
  Array.fill t.pool 0 t.cache_pages none;
  t.slots <- [||];
  t.free_frames <- []
