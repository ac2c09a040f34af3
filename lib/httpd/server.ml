open Cubicle

(* Handles on the symbols this component calls, made once. *)
module Import = struct
  let lwip_listen = Api.import "lwip_listen"
  let lwip_send = Api.import "lwip_send"
  let lwip_close = Api.import "lwip_close"
  let uk_palloc = Api.import "uk_palloc"
  let uk_time_ns = Api.import "uk_time_ns"
  let uk_pfree = Api.import "uk_pfree"
  let lwip_accept = Api.import "lwip_accept"
  let lwip_recv = Api.import "lwip_recv"
end

let chunk_size = 32 * 1024

type conn = { id : int; mutable req : Buffer.t }

type t = {
  ctx : Monitor.ctx;
  fio : Libos.Fileio.t;
  lwip_cid : Types.cid;
  shard : int;  (* the LWIP accept shard / NETDEV ring this worker drives *)
  req_buf : int;  (* page for request bytes *)
  file_buf : int;  (* chunk buffer for file data and response headers *)
  zerocopy : bool;  (* serve file bodies via vfs_sendfile instead of pread+send *)
  mutable conns : conn list;
  mutable served : int;
}

(* CubiCheck summary of the server loop ([__main] is the entry point of
   a component driven from the outside rather than called into; NGINX
   exports nothing).
   Mirrors [start]/[poll_inner]/[serve_file]: a standing path window to
   VFSCORE (the Fileio pattern), a per-request window over [req_buf]
   for LWIP, and per-chunk windows over [file_buf] — to VFSCORE+RAMFS
   for the pread, to LWIP for the send. *)
let entries =
  let lwip_window ~rw buf stmts =
    [
      Iface.Window_add
        { win = "net_win"; buf = Iface.Local buf; bytes = 0; standing = false; rw };
      Iface.Window_open { win = "net_win"; peer = "LWIP" };
    ]
    @ stmts
    @ [ Iface.Window_destroy { win = "net_win" } ]
  in
  (* send path: LWIP only reads the response bytes *)
  let send_chunk =
    lwip_window ~rw:false "file_buf"
      [ Iface.Call { sym = "lwip_send"; ptr_args = [ (1, Iface.Local "file_buf", 0) ] } ]
  in
  [
    Iface.fundecl "__init"
      [
        Iface.Call { sym = "vfs_backend_cid"; ptr_args = [] };
        Iface.Alloc { buf = "path_buf"; bytes = 512 };
        Iface.Window_add
          {
            win = "path_wid";
            buf = Iface.Local "path_buf";
            bytes = 512;
            standing = true;
            rw = false;
          };
        Iface.Window_open { win = "path_wid"; peer = "VFSCORE" };
        Iface.Alloc { buf = "req_buf"; bytes = 4096 };
        Iface.Alloc { buf = "file_buf"; bytes = chunk_size };
        Iface.Call { sym = "lwip_listen"; ptr_args = [] };
      ];
    Iface.fundecl "__main"
      [
        Iface.Loop [ Iface.Call { sym = "lwip_accept"; ptr_args = [] } ];
        Iface.Loop
          ([
             Iface.Loop
               (* RW: LWIP writes the request bytes into req_buf *)
               (lwip_window ~rw:true "req_buf"
                  [
                    Iface.Call
                      { sym = "lwip_recv"; ptr_args = [ (1, Iface.Local "req_buf", 4096) ] };
                  ]);
             Iface.Call { sym = "uk_palloc"; ptr_args = [] };
             Iface.Call { sym = "uk_time_ns"; ptr_args = [] };
             Iface.Call { sym = "vfs_open"; ptr_args = [ (0, Iface.Local "path_buf", 512) ] };
             Iface.Branch
               [
                 (* 200: headers, then stream the file chunk by chunk *)
                 [
                   Iface.Call { sym = "vfs_size"; ptr_args = [] };
                   Iface.Loop
                     ([
                        Iface.Window_add
                          {
                            win = "data_win";
                            buf = Iface.Local "file_buf";
                            bytes = 0;
                            standing = false;
                            rw = true;
                          };
                        Iface.Window_open { win = "data_win"; peer = "VFSCORE" };
                        Iface.Window_open { win = "data_win"; peer = "RAMFS" };
                        Iface.Call
                          {
                            sym = "vfs_pread";
                            ptr_args = [ (1, Iface.Local "file_buf", 0) ];
                          };
                        Iface.Window_close_all { win = "data_win" };
                        Iface.Window_remove
                          { win = "data_win"; buf = Iface.Local "file_buf" };
                      ]
                     @ send_chunk);
                   Iface.Call { sym = "vfs_close"; ptr_args = [] };
                 ];
                 (* 200, zero-copy mode: the body never enters NGINX —
                    the file system streams it via vfs_sendfile (no
                    pointer crosses, only fd/conn/len/off scalars) *)
                 [
                   Iface.Call { sym = "vfs_size"; ptr_args = [] };
                   Iface.Call { sym = "vfs_sendfile"; ptr_args = [] };
                   Iface.Call { sym = "vfs_close"; ptr_args = [] };
                 ];
                 (* error response: headers only *)
                 send_chunk;
               ];
             Iface.Call { sym = "lwip_close"; ptr_args = [] };
             Iface.Call { sym = "uk_pfree"; ptr_args = [] };
           ]
          @ send_chunk);
      ];
  ]

let component ?(workers = 1) () =
  (* each SO_REUSEPORT-style worker needs its own path/request pages
     and 32 KiB chunk buffer from the cubicle heap *)
  Builder.component ~code_ops:2048 ~heap_pages:(16 + (16 * workers)) ~stack_pages:4
    ~entries "NGINX"

let start ?(shard = 0) ?(zerocopy = false) sys =
  let ctx = Libos.Boot.app_ctx sys "NGINX" in
  (* each worker holds two persistent Fileio windows (path + data) plus
     transient net windows; extend the heap descriptor array (initially
     8 slots) so a full worker fleet fits (paper §5.3) *)
  let rec ensure cap need =
    if cap < need then begin
      Api.window_table_extend ctx ~klass:Mm.Page_meta.Heap;
      ensure (2 * cap) need
    end
  in
  ensure 8 (2 * (shard + 2));
  let fio = Libos.Fileio.make ctx in
  let lwip_cid = Api.cid_of ctx "LWIP" in
  let req_buf = Api.malloc_page_aligned ctx 4096 in
  let file_buf = Api.malloc_page_aligned ctx chunk_size in
  (* every worker binds the same port; LWIP's listen is idempotent, the
     shard argument to accept is what splits the backlog *)
  let r = Api.call ctx Import.lwip_listen [| 80 |] in
  if r <> 0 then Types.error "nginx: listen failed (%d)" r;
  { ctx; fio; lwip_cid; shard; req_buf; file_buf; zerocopy; conns = []; served = 0 }

let with_lwip_window ?(perm = Window.RW) t ~ptr ~size f =
  let wid = Api.window_init t.ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add t.ctx ~perm wid ~ptr ~size;
  Api.window_open t.ctx wid t.lwip_cid;
  (* the window goes on every exit, as a crossing unwinds *)
  match f () with
  | r ->
      Api.window_destroy t.ctx wid;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Api.window_destroy t.ctx wid;
      Printexc.raise_with_backtrace e bt

let send t conn_id ~ptr ~len =
  (* LWIP only reads the response bytes it segments onto the wire *)
  with_lwip_window ~perm:Window.R t ~ptr ~size:len (fun () ->
      Api.call t.ctx Import.lwip_send [| conn_id; ptr; len |])

let send_string t conn_id s =
  Api.write_string t.ctx t.file_buf s;
  ignore (send t conn_id ~ptr:t.file_buf ~len:(String.length s))

(* returns [keep] — whether the connection stays open *)
let respond_error t conn_id status =
  send_string t conn_id (Http.response_header ~status ~content_length:0 ());
  ignore (Api.call t.ctx Import.lwip_close [| conn_id |]);
  t.served <- t.served + 1;
  false

let serve_file t conn_id ~meth ~keep_alive path =
  let fd = Libos.Fileio.open_file t.fio path ~create:false in
  if fd < 0 then respond_error t conn_id 404
  else begin
    let size = Libos.Fileio.file_size t.fio fd in
    send_string t conn_id
      (Http.response_header ~content_type:(Http.mime_type path) ~keep_alive ~status:200
         ~content_length:size ());
    if meth <> "HEAD" then
      if t.zerocopy then begin
        (* fast path: the body goes fs → net by grant-and-forward; no
           byte of it ever lands in file_buf *)
        if size > 0 then begin
          let n = Libos.Fileio.sendfile t.fio ~fd ~conn:conn_id ~len:size ~off:0 in
          if n <> size then Types.error "nginx: sendfile returned %d/%d" n size
        end
      end
      else begin
        let rec stream off =
          if off < size then begin
            let want = Int.min chunk_size (size - off) in
            let n = Libos.Fileio.pread t.fio ~fd ~buf:t.file_buf ~len:want ~off in
            if n <= 0 then Types.error "nginx: pread returned %d" n;
            let sent = send t conn_id ~ptr:t.file_buf ~len:n in
            if sent <> n then Types.error "nginx: short send (%d/%d)" sent n;
            stream (off + n)
          end
        in
        stream 0
      end;
    ignore (Libos.Fileio.close_file t.fio fd);
    if not keep_alive then ignore (Api.call t.ctx Import.lwip_close [| conn_id |]);
    t.served <- t.served + 1;
    keep_alive
  end

let handle_request t conn raw =
  (* per-request connection state page (as NGINX pools per-request
     memory from the system allocator) and an access-log timestamp *)
  let state_page = Api.call t.ctx Import.uk_palloc [| 1 |] in
  ignore (Api.call t.ctx Import.uk_time_ns [||]);
  let keep =
    match Http.parse_request raw with
    | None -> respond_error t conn.id 400
    | Some { Http.meth; path; keep_alive } -> serve_file t conn.id ~meth ~keep_alive path
  in
  ignore (Api.call t.ctx Import.uk_pfree [| state_page |]);
  keep

let poll_inner t =
  let served_before = t.served in
  (* accept any pending connections *)
  let rec accept_loop () =
    let c = Api.call t.ctx Import.lwip_accept [| t.shard |] in
    if c >= 0 then begin
      t.conns <- { id = c; req = Buffer.create 128 } :: t.conns;
      accept_loop ()
    end
  in
  accept_loop ();
  (* pull request bytes for each connection; serve complete requests *)
  let still_open = ref [] in
  List.iter
    (fun conn ->
      let rec drain () =
        let n =
          with_lwip_window t ~ptr:t.req_buf ~size:4096 (fun () ->
              Api.call t.ctx Import.lwip_recv [| conn.id; t.req_buf; 4096 |])
        in
        if n > 0 then begin
          Buffer.add_string conn.req (Api.read_string t.ctx t.req_buf n);
          drain ()
        end
      in
      (match drain () with () -> () | exception Types.Error _ -> ());
      let raw = Buffer.contents conn.req in
      match Http.header_end raw with
      | None -> still_open := conn :: !still_open
      | Some hdr_end ->
          let keep = handle_request t conn (String.sub raw 0 hdr_end) in
          if keep then begin
            (* keep-alive: retain any pipelined bytes after the request *)
            let leftover = String.sub raw hdr_end (String.length raw - hdr_end) in
            Buffer.clear conn.req;
            Buffer.add_string conn.req leftover;
            still_open := conn :: !still_open
          end)
    t.conns;
  t.conns <- !still_open;
  t.served - served_before

(* The server main loop runs inside the NGINX cubicle. *)
let poll t = Monitor.run_as t.ctx.Monitor.mon t.ctx.Monitor.self (fun () -> poll_inner t)

let requests_served t = t.served
