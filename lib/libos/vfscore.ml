open Cubicle

(* The registered backend and handles on its exports, made once at
   registration so no backend call builds a string or looks one up. *)
type backend = {
  cid : Types.cid;
  lookup : Api.import;
  create : Api.import;
  pread : Api.import;
  sendfile : Api.import;
  pwrite : Api.import;
  size : Api.import;
  truncate : Api.import;
  fsync : Api.import;
  unlink : Api.import;
  rename : Api.import;
}

let backend_of ~prefix ~cid =
  let sym suffix = Api.import (prefix ^ "_" ^ suffix) in
  {
    cid;
    lookup = sym "lookup";
    create = sym "create";
    pread = sym "pread";
    sendfile = sym "sendfile";
    pwrite = sym "pwrite";
    size = sym "size";
    truncate = sym "truncate";
    fsync = sym "fsync";
    unlink = sym "unlink";
    rename = sym "rename";
  }

type open_file = { ino : int }

type state = {
  mutable backend : backend option;
  fds : open_file Mm.Int_tbl.t;
  mutable next_fd : int;
  mutable free_fds : int list;  (* closed fds, reused before next_fd grows *)
  mutable path_buf : int;  (* two half-page staging slots *)
  mutable path_wid : Types.wid;
}

let backend_exn state =
  match state.backend with
  | Some b -> b
  | None -> Types.error "vfscore: no file system backend registered"

(* Copy a path from the caller's memory into one of VFSCORE's staging
   slots (slot 0 or 1), returning its address. The staging page is
   permanently windowed to the backend. *)
let stage_path state ctx ~slot ~ptr ~len =
  if len <= 0 || len > 2040 then Types.error "vfscore: bad path length %d" len;
  let dst = state.path_buf + (slot * 2048) in
  Api.memcpy ctx ~dst ~src:ptr ~len;
  dst

(* The linuxu-platform inefficiency of the library OS (paper Fig. 10a:
   Unikraft alone is ~2.8x slower than native Linux): every VFS
   operation crosses the user-level platform layer. Applies to all
   Unikraft-based configurations, including CubicleOS. *)
let charge_platform (ctx : Monitor.ctx) =
  Hw.Cost.charge (Monitor.cost ctx.mon) (Monitor.cost ctx.mon).model.unikraft_op

let wrap fn state ctx args =
  charge_platform ctx;
  fn state ctx args

let register_backend_fn state ctx (args : int array) =
  let prefix =
    match args.(0) with
    | 1 -> "ramfs"
    | 2 -> "fatfs"
    | tag -> Types.error "vfscore: unknown backend tag %d" tag
  in
  state.backend <- Some (backend_of ~prefix ~cid:ctx.Monitor.caller);
  (* Grant the backend standing access to the path staging buffer —
     unless it lives in this very cubicle (merged deployments). *)
  if ctx.Monitor.caller <> ctx.Monitor.self then
    Api.window_open ctx state.path_wid ctx.Monitor.caller;
  Sysdefs.ok

let backend_cid_fn state _ctx _ = (backend_exn state).cid

let lookup state ctx ~ptr ~len =
  let path = stage_path state ctx ~slot:0 ~ptr ~len in
  Api.call ctx (backend_exn state).lookup [| path; len |]

let open_fn state ctx (args : int array) =
  let ptr = args.(0) and len = args.(1) and flags = args.(2) in
  let ino = lookup state ctx ~ptr ~len in
  let ino =
    if ino >= 0 then ino
    else if flags land 1 = 1 then
      let path = stage_path state ctx ~slot:0 ~ptr ~len in
      Api.call ctx (backend_exn state).create [| path; len |]
    else Sysdefs.enoent
  in
  if ino < 0 then ino
  else begin
    (* reuse a recycled fd number before growing the table: a soak run
       of open/close cycles must not exhaust the fd-number space *)
    let fd =
      match state.free_fds with
      | fd :: rest ->
          state.free_fds <- rest;
          fd
      | [] ->
          let fd = state.next_fd in
          state.next_fd <- state.next_fd + 1;
          fd
    in
    Mm.Int_tbl.replace state.fds fd { ino };
    fd
  end

let with_fd state fd f =
  match Mm.Int_tbl.find_opt state.fds fd with None -> Sysdefs.ebadf | Some o -> f o

let close_fn state _ctx (args : int array) =
  if Mm.Int_tbl.mem state.fds args.(0) then begin
    Mm.Int_tbl.remove state.fds args.(0);
    state.free_fds <- args.(0) :: state.free_fds;
    Sysdefs.ok
  end
  else Sysdefs.ebadf

(* Data operations hand the backend an io descriptor (struct uio style,
   as Unikraft's vfscore does) through the staging window; the data
   buffer itself is passed through zero-copy. *)
let stage_iodesc state ctx ~ino ~len ~off =
  let desc = state.path_buf + 1024 in
  Api.write_u32 ctx desc ino;
  Api.write_u32 ctx (desc + 4) len;
  Api.write_i64 ctx (desc + 8) (Int64.of_int off);
  desc

let pread_fn state ctx (args : int array) =
  with_fd state args.(0) (fun o ->
      let desc = stage_iodesc state ctx ~ino:o.ino ~len:args.(2) ~off:args.(3) in
      Api.call ctx (backend_exn state).pread [| desc; args.(1) |])

(* sendfile(fd, conn, len, off): stage the iodesc exactly like pread,
   but the data never comes back — the backend grants the backing pages
   to the network stack and streams them out (zero-copy fast path). *)
let sendfile_fn state ctx (args : int array) =
  with_fd state args.(0) (fun o ->
      let desc = stage_iodesc state ctx ~ino:o.ino ~len:args.(2) ~off:args.(3) in
      Api.call ctx (backend_exn state).sendfile [| desc; args.(1) |])

let pwrite_fn state ctx (args : int array) =
  with_fd state args.(0) (fun o ->
      let desc = stage_iodesc state ctx ~ino:o.ino ~len:args.(2) ~off:args.(3) in
      Api.call ctx (backend_exn state).pwrite [| desc; args.(1) |])

let size_fn state ctx (args : int array) =
  with_fd state args.(0) (fun o -> Api.call ctx (backend_exn state).size [| o.ino |])

let truncate_fn state ctx (args : int array) =
  with_fd state args.(0) (fun o ->
      Api.call ctx (backend_exn state).truncate [| o.ino; args.(1) |])

let fsync_fn state ctx (args : int array) =
  with_fd state args.(0) (fun o -> Api.call ctx (backend_exn state).fsync [| o.ino |])

let unlink_fn state ctx (args : int array) =
  let path = stage_path state ctx ~slot:0 ~ptr:args.(0) ~len:args.(1) in
  Api.call ctx (backend_exn state).unlink [| path; args.(1) |]

let exists_fn state ctx (args : int array) =
  if lookup state ctx ~ptr:args.(0) ~len:args.(1) >= 0 then 1 else 0

let rename_fn state ctx (args : int array) =
  let old_path = stage_path state ctx ~slot:0 ~ptr:args.(0) ~len:args.(1) in
  let new_path = stage_path state ctx ~slot:1 ~ptr:args.(2) ~len:args.(3) in
  Api.call ctx (backend_exn state).rename [| old_path; args.(1); new_path; args.(3) |]

let init state ctx =
  state.path_buf <- Api.malloc_page_aligned ctx 4096;
  state.path_wid <- Api.window_init ctx ~klass:Mm.Page_meta.Heap;
  (* read-only standing grant: VFSCORE fills its own staging slots; the
     backend only ever reads paths and io descriptors through them *)
  Api.window_add ctx ~perm:Window.R state.path_wid ~ptr:state.path_buf ~size:4096

(* The exports with their CubiCheck summaries. The backend is
   registered at runtime, so the callee prefix is a parameter ([ramfs]
   by default, [fatfs] for the persistent-disk stack). *)
let exports state ~backend ~sendfile =
  let b s = backend ^ "_" ^ s in
  let staged ~arg ~bytes = (arg, Iface.Local "path_staging", bytes) in
  (if not sendfile then []
   else
     [
       (* the iodesc goes through the staging window; no data buffer
          crosses here at all (the backend grants its own pages) *)
       Builder.export "vfs_sendfile" (wrap sendfile_fn state)
         [ Iface.Call { sym = b "sendfile"; ptr_args = [ staged ~arg:0 ~bytes:1040 ] } ];
     ])
  @ [
    Builder.export "vfs_register_backend" (register_backend_fn state) [];
    Builder.export "vfs_backend_cid" (backend_cid_fn state) [];
    Builder.export ~derefs:[ 0 ] "vfs_open" (wrap open_fn state)
      [
        Iface.Call { sym = b "lookup"; ptr_args = [ staged ~arg:0 ~bytes:2048 ] };
        Iface.Branch
          [ [ Iface.Call { sym = b "create"; ptr_args = [ staged ~arg:0 ~bytes:2048 ] } ]; [] ];
      ];
    Builder.export "vfs_close" (wrap close_fn state) [];
    (* data ops: the io descriptor goes through the staging window, the
       data buffer is forwarded zero-copy (arg 1 of the backend call) *)
    Builder.export "vfs_pread" (wrap pread_fn state)
      [
        Iface.Call
          { sym = b "pread"; ptr_args = [ staged ~arg:0 ~bytes:1040; (1, Iface.Param 1, 0) ] };
      ];
    Builder.export "vfs_pwrite" (wrap pwrite_fn state)
      [
        Iface.Call
          { sym = b "pwrite"; ptr_args = [ staged ~arg:0 ~bytes:1040; (1, Iface.Param 1, 0) ] };
      ];
    Builder.export "vfs_size" (wrap size_fn state)
      [ Iface.Call { sym = b "size"; ptr_args = [] } ];
    Builder.export "vfs_truncate" (wrap truncate_fn state)
      [ Iface.Call { sym = b "truncate"; ptr_args = [] } ];
    Builder.export "vfs_fsync" (wrap fsync_fn state)
      [ Iface.Call { sym = b "fsync"; ptr_args = [] } ];
    Builder.export ~derefs:[ 0 ] "vfs_unlink" (wrap unlink_fn state)
      [ Iface.Call { sym = b "unlink"; ptr_args = [ staged ~arg:0 ~bytes:2048 ] } ];
    Builder.export ~derefs:[ 0 ] "vfs_exists" (wrap exists_fn state)
      [ Iface.Call { sym = b "lookup"; ptr_args = [ staged ~arg:0 ~bytes:2048 ] } ];
    Builder.export ~derefs:[ 0; 2 ] ~stack_bytes:16 "vfs_rename" (wrap rename_fn state)
      [
        Iface.Call
          {
            sym = b "rename";
            ptr_args = [ staged ~arg:0 ~bytes:2048; staged ~arg:2 ~bytes:4096 ];
          };
      ];
  ]

let component ?(backend = "ramfs") ?(sendfile = false) () =
  let state =
    {
      backend = None;
      fds = Mm.Int_tbl.create 32;
      next_fd = 3;
      free_fds = [];
      path_buf = 0;
      path_wid = 0;
    }
  in
  Builder.component "VFSCORE" ~code_ops:1024 ~heap_pages:8 ~stack_pages:4
    ~init:(init state)
    (* the registration-time [window_open] to the dynamic backend caller
       is modelled as an init-time open to peer "*" (documented soundness
       caveat: the summary cannot name a cubicle that only exists at
       runtime) *)
    ~entries:
      [
        Iface.fundecl "__init"
          [
            Iface.Alloc { buf = "path_staging"; bytes = 4096 };
            Iface.Window_add
              {
                win = "path_wid";
                buf = Iface.Local "path_staging";
                bytes = 4096;
                standing = true;
                rw = false;
              };
            Iface.Window_open { win = "path_wid"; peer = "*" };
          ];
      ]
    ~exports:(exports state ~backend ~sendfile)
