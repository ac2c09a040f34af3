open Cubicle

(* Handles on the symbols this component calls, made once. *)
module Import = struct
  let vfs_backend_cid = Api.import "vfs_backend_cid"
  let vfs_open = Api.import "vfs_open"
  let vfs_close = Api.import "vfs_close"
  let vfs_pread = Api.import "vfs_pread"
  let vfs_pwrite = Api.import "vfs_pwrite"
  let vfs_sendfile = Api.import "vfs_sendfile"
  let vfs_size = Api.import "vfs_size"
  let vfs_truncate = Api.import "vfs_truncate"
  let vfs_fsync = Api.import "vfs_fsync"
  let vfs_unlink = Api.import "vfs_unlink"
  let vfs_exists = Api.import "vfs_exists"
  let vfs_rename = Api.import "vfs_rename"
end

(* The CubiCheck summary of the calls above, for a component that does
   its file I/O here and exports nothing ([__main]: it is driven from
   outside). Mirrors [make] (a standing read-only path window to
   VFSCORE) and [with_window] (a data buffer granted to VFSCORE and the
   backend, resolved at run time, around each pread or pwrite).
   [vfs_sendfile] is left out: only a stack booted with the sendfile
   path exports it, and its one user, NGINX, declares it itself. *)
let entries =
  let path sym = Iface.Call { sym; ptr_args = [ (0, Iface.Local "path_buf", 512) ] } in
  let call sym = Iface.Call { sym; ptr_args = [] } in
  let data ~rw sym =
    [
      Iface.Window_add
        { win = "data_wid"; buf = Iface.Local "data"; bytes = 0; standing = false; rw };
      Iface.Window_open { win = "data_wid"; peer = "VFSCORE" };
      Iface.Window_open { win = "data_wid"; peer = "*" };
      Iface.Call { sym; ptr_args = [ (1, Iface.Local "data", 0) ] };
      Iface.Window_close_all { win = "data_wid" };
      Iface.Window_remove { win = "data_wid"; buf = Iface.Local "data" };
    ]
  in
  [
    Iface.fundecl "__main"
      [
        call "vfs_backend_cid";
        Iface.Alloc { buf = "path_buf"; bytes = 512 };
        Iface.Window_add
          { win = "path_wid"; buf = Iface.Local "path_buf"; bytes = 512; standing = true; rw = false };
        Iface.Window_open { win = "path_wid"; peer = "VFSCORE" };
        (* a caller heap buffer: granted whole *)
        Iface.Alloc { buf = "data"; bytes = Hw.Addr.page_size };
        Iface.Loop
          [
            Iface.Branch
              [
                [ path "vfs_open" ];
                [ call "vfs_close" ];
                (* the backend writes the buffer on a read *)
                data ~rw:true "vfs_pread";
                data ~rw:false "vfs_pwrite";
                [ call "vfs_size" ];
                [ call "vfs_truncate" ];
                [ call "vfs_fsync" ];
                [ path "vfs_unlink" ];
                [ path "vfs_exists" ];
                [
                  Iface.Call
                    {
                      sym = "vfs_rename";
                      ptr_args =
                        [ (0, Iface.Local "path_buf", 256); (2, Iface.Local "path_buf", 256) ];
                    };
                ];
              ];
          ];
      ];
  ]

type t = {
  ctx : Monitor.ctx;
  vfs_cid : Types.cid;
  backend_cid : Types.cid;
  path_buf : int;  (* page-aligned; reused for every path argument *)
  path_wid : Types.wid;
  data_wid : Types.wid;  (* reused window for data buffers *)
}

let make ctx =
  let vfs_cid = Api.cid_of ctx "VFSCORE" in
  let backend_cid = Api.call ctx Import.vfs_backend_cid [||] in
  let path_buf = Api.malloc_page_aligned ctx 512 in
  let path_wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  (* paths are read by VFSCORE only (it re-stages them for the backend),
     so the standing grant is read-only *)
  Api.window_add ctx ~perm:Window.R path_wid ~ptr:path_buf ~size:512;
  Api.window_open ctx path_wid vfs_cid;
  let data_wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  { ctx; vfs_cid; backend_cid; path_buf; path_wid; data_wid }

let ctx t = t.ctx

let with_path t path f =
  let len = String.length path in
  if len = 0 || len > 500 then Types.error "fileio: bad path %S" path;
  Api.write_string t.ctx t.path_buf path;
  f t.path_buf len

(* Expose a caller-owned heap buffer to VFSCORE and the backend for the
   duration of [f] (open … call … close, as in Figure 2). *)
let with_window ?(perm = Window.RW) t ~ptr ~size f =
  let teardown () =
    Api.window_close_all t.ctx t.data_wid;
    Api.window_remove t.ctx t.data_wid ~ptr
  in
  (* the setup itself can fail halfway (e.g. the backend cubicle is
     gone when the second open runs): roll the partial grant back
     before re-raising, or the range and the VFSCORE open leak into
     every later use of the shared data window *)
  (try
     Api.window_add t.ctx ~perm t.data_wid ~ptr ~size;
     Api.window_open t.ctx t.data_wid t.vfs_cid;
     if t.backend_cid <> t.vfs_cid then Api.window_open t.ctx t.data_wid t.backend_cid
   with e ->
     (try teardown () with _ -> ());
     raise e);
  match f () with
  | r ->
      teardown ();
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      teardown ();
      Printexc.raise_with_backtrace e bt

let open_file t path ~create =
  with_path t path (fun p len ->
      Api.call t.ctx Import.vfs_open [| p; len; (if create then 1 else 0) |])

let close_file t fd = Api.call t.ctx Import.vfs_close [| fd |]

let pread t ~fd ~buf ~len ~off =
  with_window t ~ptr:buf ~size:len (fun () ->
      Api.call t.ctx Import.vfs_pread [| fd; buf; len; off |])

let pwrite t ~fd ~buf ~len ~off =
  (* the backend only reads the source buffer on the write path *)
  with_window ~perm:Window.R t ~ptr:buf ~size:len (fun () ->
      Api.call t.ctx Import.vfs_pwrite [| fd; buf; len; off |])

(* Zero-copy: no caller buffer, hence no window to manage — the file
   system grants its own chunk pages to the network stack. *)
let sendfile t ~fd ~conn ~len ~off =
  Api.call t.ctx Import.vfs_sendfile [| fd; conn; len; off |]

let file_size t fd = Api.call t.ctx Import.vfs_size [| fd |]
let truncate t ~fd ~size = Api.call t.ctx Import.vfs_truncate [| fd; size |]
let fsync t fd = Api.call t.ctx Import.vfs_fsync [| fd |]

let unlink t path =
  with_path t path (fun p len -> Api.call t.ctx Import.vfs_unlink [| p; len |])
let exists t path =
  with_path t path (fun p len -> Api.call t.ctx Import.vfs_exists [| p; len |]) = 1

let rename t ~old_name ~new_name =
  (* both names share the path staging buffer: old at 0, new at 256 *)
  let ol = String.length old_name and nl = String.length new_name in
  if ol = 0 || ol > 250 || nl = 0 || nl > 250 then Types.error "fileio: bad rename paths";
  Api.write_string t.ctx t.path_buf old_name;
  Api.write_string t.ctx (t.path_buf + 256) new_name;
  Api.call t.ctx Import.vfs_rename [| t.path_buf; ol; t.path_buf + 256; nl |]

let write_file t path contents =
  let fd = open_file t path ~create:true in
  if fd < 0 then Types.error "fileio: cannot create %s (%d)" path fd;
  let len = String.length contents in
  if len > 0 then begin
    let buf = Api.malloc_page_aligned t.ctx len in
    Api.write_string t.ctx buf contents;
    let n = pwrite t ~fd ~buf ~len ~off:0 in
    Api.free t.ctx buf;
    if n <> len then Types.error "fileio: short write to %s (%d/%d)" path n len
  end;
  ignore (truncate t ~fd ~size:len);
  ignore (close_file t fd)

let read_file t path =
  let fd = open_file t path ~create:false in
  if fd < 0 then Types.error "fileio: cannot open %s (%d)" path fd;
  let size = file_size t fd in
  let result =
    if size = 0 then ""
    else begin
      let buf = Api.malloc_page_aligned t.ctx size in
      let n = pread t ~fd ~buf ~len:size ~off:0 in
      let s = Api.read_string t.ctx buf n in
      Api.free t.ctx buf;
      s
    end
  in
  ignore (close_file t fd);
  result
