open Cubicle

(* Handles on the symbols this component calls, made once. *)
module Import = struct
  let uk_palloc = Api.import "uk_palloc"
  let memcpy = Api.import "memcpy"
  let memset = Api.import "memset"
  let lwip_send_zc = Api.import "lwip_send_zc"
  let uk_pfree = Api.import "uk_pfree"
  let vfs_register_backend = Api.import "vfs_register_backend"
end

let chunk_size = Hw.Addr.page_size

type file = {
  ino : int;
  mutable name : string;
  mutable size : int;
  mutable chunks : int array;  (* page addresses; 0 = not yet allocated *)
}

type state = {
  by_name : (string, file) Hashtbl.t;
  by_ino : file Mm.Int_tbl.t;
  mutable next_ino : int;
  (* zero-copy sendfile: one standing heap window carrying every chunk
     page granted to the network stack, created lazily on the first
     sendfile. [granted] tracks the chunk addresses currently in the
     window so each page is granted once and revoked before free. *)
  mutable sf_wid : int;  (* -1 until the first sendfile *)
  granted : unit Mm.Int_tbl.t;
}

let read_path ctx ptr len = Api.read_string ctx ptr len

let ensure_chunks state ctx file n =
  ignore state;
  if Array.length file.chunks < n then begin
    let chunks = Array.make n 0 in
    Array.blit file.chunks 0 chunks 0 (Array.length file.chunks);
    file.chunks <- chunks
  end;
  for i = 0 to n - 1 do
    if file.chunks.(i) = 0 then
      file.chunks.(i) <- Api.call ctx Import.uk_palloc [| 1 |]
  done

let lookup_fn state ctx (args : int array) =
  let path = read_path ctx args.(0) args.(1) in
  match Hashtbl.find_opt state.by_name path with
  | Some f -> f.ino
  | None -> Sysdefs.enoent

let create_fn state ctx (args : int array) =
  let path = read_path ctx args.(0) args.(1) in
  match Hashtbl.find_opt state.by_name path with
  | Some _ -> Sysdefs.eexist
  | None ->
      let ino = state.next_ino in
      state.next_ino <- ino + 1;
      let f = { ino; name = path; size = 0; chunks = [||] } in
      Hashtbl.replace state.by_name path f;
      Mm.Int_tbl.replace state.by_ino ino f;
      ino

let with_ino state ino f =
  match Mm.Int_tbl.find_opt state.by_ino ino with None -> Sysdefs.ebadf | Some file -> f file

(* Copy [len] bytes between a caller buffer and file chunks, one chunk
   piece at a time, through the shared-cubicle memcpy. *)
let chunk_io state ctx file ~buf ~len ~off ~write =
  if write then ensure_chunks state ctx file ((off + len + chunk_size - 1) / chunk_size);
  let rec step done_ =
    if done_ >= len then done_
    else begin
      let pos = off + done_ in
      let ci = pos / chunk_size and coff = pos mod chunk_size in
      let n = min (len - done_) (chunk_size - coff) in
      if write then
        ignore (Api.call ctx Import.memcpy [| file.chunks.(ci) + coff; buf + done_; n |])
      else if ci < Array.length file.chunks && file.chunks.(ci) <> 0 then
        ignore (Api.call ctx Import.memcpy [| buf + done_; file.chunks.(ci) + coff; n |])
      else
        (* sparse hole: read as zeroes *)
        ignore (Api.call ctx Import.memset [| buf + done_; n; 0 |]);
      step (done_ + n)
    end
  in
  step 0

(* pread/pwrite receive an io descriptor (in the VFS's staging window)
   plus the data buffer pointer (in the application's window). *)
let read_iodesc ctx desc =
  let ino = Api.read_u32 ctx desc in
  let len = Api.read_u32 ctx (desc + 4) in
  let off = Int64.to_int (Api.read_i64 ctx (desc + 8)) in
  (ino, len, off)

let pread_fn state ctx (args : int array) =
  let ino, len, off = read_iodesc ctx args.(0) in
  with_ino state ino (fun file ->
      let buf = args.(1) in
      if off >= file.size then 0
      else
        let len = min len (file.size - off) in
        chunk_io state ctx file ~buf ~len ~off ~write:false)

let pwrite_fn state ctx (args : int array) =
  let ino, len, off = read_iodesc ctx args.(0) in
  with_ino state ino (fun file ->
      let buf = args.(1) in
      let n = chunk_io state ctx file ~buf ~len ~off ~write:true in
      file.size <- max file.size (off + n);
      n)

let size_fn state _ctx (args : int array) = with_ino state args.(0) (fun f -> f.size)

(* Revoke a chunk's sendfile grant (if any) before the page goes back
   to the allocator: a freed page must never stay reachable through a
   standing window. *)
let revoke_chunk state ctx addr =
  if state.sf_wid >= 0 && Mm.Int_tbl.mem state.granted addr then begin
    Api.window_remove ctx state.sf_wid ~ptr:addr;
    Mm.Int_tbl.remove state.granted addr
  end

(* Zero-copy sendfile: grant the chunk pages backing [off, off+len) to
   the network stack through the standing sendfile window (batched —
   one monitor crossing for the whole span) and stream the bytes with
   lwip_send_zc, which forwards the grant to NETDEV. No payload byte is
   copied by RAMFS. *)
let sendfile_fn state ctx (args : int array) =
  let ino, len, off = read_iodesc ctx args.(0) in
  let conn = args.(1) in
  with_ino state ino (fun file ->
      if off >= file.size then 0
      else begin
        let len = min len (file.size - off) in
        if len <= 0 then 0
        else begin
          if state.sf_wid < 0 then begin
            let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
            Api.window_open_many ctx wid [ Api.cid_of ctx "LWIP" ];
            state.sf_wid <- wid
          end;
          (* materialise holes: a granted page must exist (the page-cache
             fill a real sendfile would do) *)
          ensure_chunks state ctx file ((off + len + chunk_size - 1) / chunk_size);
          let first = off / chunk_size and last = (off + len - 1) / chunk_size in
          let fresh = ref [] in
          for ci = first to last do
            let addr = file.chunks.(ci) in
            if not (Mm.Int_tbl.mem state.granted addr) then begin
              Mm.Int_tbl.replace state.granted addr ();
              fresh := (addr, chunk_size) :: !fresh
            end
          done;
          (* grant the fresh chunk pages (batched), then downgrade each
             grant to read-only: the network stack only ever reads file
             chunks on the transmit path, so a compromised LWIP/NETDEV
             must not be able to scribble into the page cache through
             the standing window. The downgrade is a priced window op
             per fresh chunk; already-granted chunks stay R for free. *)
          (match List.rev !fresh with
          | [] -> ()
          | ranges ->
              Api.window_add_ranges ctx state.sf_wid ranges;
              List.iter (fun (ptr, _) -> Api.window_downgrade ctx state.sf_wid ~ptr) ranges);
          let rec step done_ =
            if done_ >= len then done_
            else begin
              let pos = off + done_ in
              let ci = pos / chunk_size and coff = pos mod chunk_size in
              let n = min (len - done_) (chunk_size - coff) in
              let r =
                Api.call ctx Import.lwip_send_zc
                  [| conn; file.chunks.(ci) + coff; n; state.sf_wid |]
              in
              if r <> n then Types.error "ramfs: short zero-copy send (%d/%d)" r n;
              step (done_ + n)
            end
          in
          step 0
        end
      end)

let truncate_fn state ctx (args : int array) =
  with_ino state args.(0) (fun file ->
      let new_size = args.(1) in
      if new_size < file.size then begin
        (* free now-unused whole chunks *)
        let keep = (new_size + chunk_size - 1) / chunk_size in
        Array.iteri
          (fun i addr ->
            if i >= keep && addr <> 0 then begin
              revoke_chunk state ctx addr;
              ignore (Api.call ctx Import.uk_pfree [| addr |]);
              file.chunks.(i) <- 0
            end)
          file.chunks;
        (* zero the tail of the boundary chunk so a later extension
           reads zeroes, not stale bytes (POSIX truncate semantics).
           The boundary chunk may not exist: a sparse file extended by
           truncate has fewer allocated chunks than its size implies *)
        let coff = new_size mod chunk_size in
        if coff > 0 && keep >= 1 && keep <= Array.length file.chunks && file.chunks.(keep - 1) <> 0 then
          ignore
            (Api.call ctx Import.memset
               [| file.chunks.(keep - 1) + coff; chunk_size - coff; 0 |])
      end;
      file.size <- new_size;
      Sysdefs.ok)

let fsync_fn _state ctx (_args : int array) =
  Hw.Cost.charge (Monitor.cost ctx.Monitor.mon) Sysdefs.fsync_cycles;
  Sysdefs.ok

let unlink_fn state ctx (args : int array) =
  let path = read_path ctx args.(0) args.(1) in
  match Hashtbl.find_opt state.by_name path with
  | None -> Sysdefs.enoent
  | Some file ->
      Array.iter
        (fun addr ->
          if addr <> 0 then begin
            revoke_chunk state ctx addr;
            ignore (Api.call ctx Import.uk_pfree [| addr |])
          end)
        file.chunks;
      Hashtbl.remove state.by_name path;
      Mm.Int_tbl.remove state.by_ino file.ino;
      Sysdefs.ok

let rename_fn state ctx (args : int array) =
  let old_path = read_path ctx args.(0) args.(1) in
  let new_path = read_path ctx args.(2) args.(3) in
  match Hashtbl.find_opt state.by_name old_path with
  | None -> Sysdefs.enoent
  | Some file ->
      (match Hashtbl.find_opt state.by_name new_path with
      | Some target when target.ino <> file.ino ->
          (* rename over an existing file replaces it *)
          Array.iter
            (fun addr ->
              if addr <> 0 then begin
                revoke_chunk state ctx addr;
                ignore (Api.call ctx Import.uk_pfree [| addr |])
              end)
            target.chunks;
          Mm.Int_tbl.remove state.by_ino target.ino
      | _ -> ());
      Hashtbl.remove state.by_name old_path;
      file.name <- new_path;
      Hashtbl.replace state.by_name new_path file;
      Sysdefs.ok

let init _state ctx =
  (* fill in VFSCORE's callback table, interposed through trampolines *)
  ignore (Api.call ctx Import.vfs_register_backend [| 1 |])

let make ?(sendfile = false) () =
  let state =
    {
      by_name = Hashtbl.create 64;
      by_ino = Mm.Int_tbl.create 64;
      next_ino = 1;
      sf_wid = -1;
      granted = Mm.Int_tbl.create 64;
    }
  in
  (* when the sendfile path is compiled in, every chunk free first
     revokes the page's standing grant *)
  let free_loop =
    Iface.Loop
      ((if sendfile then
          [ Iface.Window_remove { win = "sf_win"; buf = Iface.Local "file_chunks" } ]
        else [])
      @ [ Iface.Call { sym = "uk_pfree"; ptr_args = [] } ])
  in
  let zc_exports =
    if not sendfile then []
    else
      [
        (* grant-and-forward: chunk pages enter the standing sf_win,
           opened for LWIP, which forwards the grant to NETDEV before
           the gather transmit touches the payload *)
        Builder.export ~derefs:[ 0 ] "ramfs_sendfile" (sendfile_fn state)
          [
            Iface.Loop [ Iface.Call { sym = "uk_palloc"; ptr_args = [] } ];
            Iface.Window_add
              {
                win = "sf_win";
                buf = Iface.Local "file_chunks";
                bytes = chunk_size;
                standing = true;
                rw = false;
              };
            Iface.Window_open { win = "sf_win"; peer = "LWIP" };
            Iface.Window_forward { win = "sf_win"; peer = "NETDEV" };
            Iface.Loop
              [
                Iface.Call
                  {
                    sym = "lwip_send_zc";
                    ptr_args = [ (1, Iface.Local "file_chunks", chunk_size) ];
                  };
              ];
          ];
      ]
  in
  let comp =
    Builder.component "RAMFS" ~code_ops:768 ~heap_pages:8 ~stack_pages:4 ~init:(init state)
      ~entries:
        [
          Iface.fundecl "__init"
            [ Iface.Call { sym = "vfs_register_backend"; ptr_args = [] } ];
        ]
      ~exports:
        ([
           Builder.export ~derefs:[ 0 ] "ramfs_lookup" (lookup_fn state) [];
           Builder.export ~derefs:[ 0 ] "ramfs_create" (create_fn state) [];
           (* data ops read the iodesc (arg 0) and copy through the
              caller's buffer (arg 1) via shared libc, running with this
              cubicle's privileges *)
           Builder.export ~derefs:[ 0; 1 ] ~writes:[ 1 ] "ramfs_pread" (pread_fn state)
             [ Iface.Loop [ Iface.Call { sym = "memcpy"; ptr_args = [] } ] ];
           Builder.export ~derefs:[ 0; 1 ] "ramfs_pwrite" (pwrite_fn state)
             [
               Iface.Loop
                 [
                   Iface.Call { sym = "uk_palloc"; ptr_args = [] };
                   Iface.Call { sym = "memcpy"; ptr_args = [] };
                 ];
             ];
           Builder.export "ramfs_size" (size_fn state) [];
           Builder.export "ramfs_truncate" (truncate_fn state)
             [
               free_loop;
               Iface.Branch [ [ Iface.Call { sym = "memset"; ptr_args = [] } ]; [] ];
             ];
           Builder.export "ramfs_fsync" (fsync_fn state) [];
           Builder.export ~derefs:[ 0 ] "ramfs_unlink" (unlink_fn state) [ free_loop ];
           Builder.export ~derefs:[ 0; 2 ] ~stack_bytes:16 "ramfs_rename" (rename_fn state)
             [ free_loop ];
         ]
        @ zc_exports)
  in
  (state, comp)

let file_count state = Hashtbl.length state.by_name
let total_bytes state = Mm.Int_tbl.fold (fun _ f acc -> acc + f.size) state.by_ino 0
