open Cubicle

type config =
  | Linux
  | Unikraft
  | Genode3 of Kernel.t
  | Genode4 of Kernel.t
  | Cubicle3
  | Cubicle4

let config_name = function
  | Linux -> "Linux"
  | Unikraft -> "Unikraft"
  | Genode3 k -> "Genode-3/" ^ k.Kernel.name
  | Genode4 k -> "Genode-4/" ^ k.Kernel.name
  | Cubicle3 -> "CubicleOS-3"
  | Cubicle4 -> "CubicleOS-4"

type instance = { os : Minidb.Os_iface.t; mon : Monitor.t }

(* --- the Genode file system service ------------------------------------- *)

type gfile = { mutable data : Bytes.t; mutable size : int }

let ggrow f want =
  if Bytes.length f.data < want then begin
    let ndata = Bytes.make (max want (2 * Bytes.length f.data + 4096)) '\000' in
    Bytes.blit f.data 0 ndata 0 f.size;
    f.data <- ndata
  end

let packet_size = Hw.Addr.page_size

(* In the 3-component deployment Genode's VFS (with the built-in RAMFS
   plugin) is a library inside the application component, so a file
   system operation costs only the framework's dispatch overhead. *)
let genode_lib_op_cycles = 1_950

(* Charge the CORE <-> RAMFS packet-stream protocol of the 4-component
   deployment: one RPC submission and one completion signal per packet,
   plus the packet's copy through the shared buffer in each direction. *)
let charge_backend backend_rpc len =
  match backend_rpc with
  | None -> ()
  | Some rpc ->
      let packets = max 1 ((len + packet_size - 1) / packet_size) in
      for _ = 1 to packets do
        Rpc.call rpc ~payload:(min len packet_size) (fun () -> ());
        Rpc.signal rpc
      done

let genode_os kern ~split ctx =
  let session = Rpc.create ctx kern in
  let backend_rpc = if split then Some (Rpc.create ctx kern) else None in
  (* split:false -> library VFS: flat framework overhead, no kernel IPC *)
  let session_call payload f =
    if split then Rpc.call session ~payload f
    else begin
      Hw.Cost.charge_cat (Hw.Cpu.cost ctx.Monitor.cpu) Telemetry.Attrib.Ipc
        genode_lib_op_cycles;
      f ()
    end
  in
  let files : (string, gfile) Hashtbl.t = Hashtbl.create 16 in
  let fds : (int, gfile) Hashtbl.t = Hashtbl.create 16 in
  let next_fd = ref 3 in
  let cpu = ctx.Monitor.cpu in
  let meta_call f = session_call 32 (fun () -> charge_backend backend_rpc 32; f ()) in
  {
    Minidb.Os_iface.ctx;
    open_file =
      (fun path ~create ->
        meta_call (fun () ->
            match Hashtbl.find_opt files path with
            | Some f ->
                let fd = !next_fd in
                incr next_fd;
                Hashtbl.replace fds fd f;
                fd
            | None ->
                if not create then Libos.Sysdefs.enoent
                else begin
                  let f = { data = Bytes.create 4096; size = 0 } in
                  Hashtbl.replace files path f;
                  let fd = !next_fd in
                  incr next_fd;
                  Hashtbl.replace fds fd f;
                  fd
                end));
    close_file =
      (fun fd ->
        meta_call (fun () ->
            if Hashtbl.mem fds fd then (Hashtbl.remove fds fd; 0) else Libos.Sysdefs.ebadf));
    pread =
      (fun ~fd ~buf ~len ~off ->
        session_call 32 (fun () ->
            match Hashtbl.find_opt fds fd with
            | None -> Libos.Sysdefs.ebadf
            | Some f ->
                if off >= f.size then 0
                else begin
                  let n = min len (f.size - off) in
                  (* backend -> CORE (packet stream when split) *)
                  charge_backend backend_rpc n;
                  (* file store -> session buffer -> application *)
                  if split then Rpc.copy_in_sub session f.data ~pos:off ~len:n;
                  Hw.Cpu.write_sub cpu buf f.data ~pos:off ~len:n;
                  n
                end));
    pwrite =
      (fun ~fd ~buf ~len ~off ->
        session_call 32 (fun () ->
            match Hashtbl.find_opt fds fd with
            | None -> Libos.Sysdefs.ebadf
            | Some f ->
                ggrow f (off + len);
                Hw.Cpu.read_into cpu buf f.data ~pos:off ~len;
                if split then Rpc.copy_in_sub session f.data ~pos:off ~len;
                charge_backend backend_rpc len;
                f.size <- max f.size (off + len);
                len));
    file_size =
      (fun fd ->
        meta_call (fun () ->
            match Hashtbl.find_opt fds fd with
            | None -> Libos.Sysdefs.ebadf
            | Some f -> f.size));
    truncate =
      (fun ~fd ~size ->
        meta_call (fun () ->
            match Hashtbl.find_opt fds fd with
            | None -> Libos.Sysdefs.ebadf
            | Some f ->
                ggrow f size;
                if size < f.size then Bytes.fill f.data size (f.size - size) '\000';
                f.size <- size;
                0));
    fsync = (fun _fd -> meta_call (fun () -> 0));
    unlink =
      (fun path ->
        meta_call (fun () ->
            if Hashtbl.mem files path then (Hashtbl.remove files path; 0)
            else Libos.Sysdefs.enoent));
    exists = (fun path -> meta_call (fun () -> if Hashtbl.mem files path then 1 else 0) = 1);
    rename =
      (fun ~old_name ~new_name ->
        meta_call (fun () ->
            match Hashtbl.find_opt files old_name with
            | None -> Libos.Sysdefs.enoent
            | Some f ->
                Hashtbl.remove files old_name;
                Hashtbl.replace files new_name f;
                0));
  }

(* --- configuration instances ----------------------------------------------- *)

let plain_app_system mem_bytes =
  let mon = Monitor.create ~protection:Types.None_ ~mem_bytes () in
  let cid =
    Monitor.create_cubicle mon ~name:"APP" ~kind:Types.Isolated ~heap_pages:512
      ~stack_pages:4
  in
  (mon, Monitor.ctx_for mon cid)

(* the application cubicle carries the paper's name for it *)
let cubicle_system mem_bytes ~merge_fs =
  let app = Builder.component ~heap_pages:512 ~stack_pages:4 "SQLITE" in
  let sys =
    Libos.Boot.fs_stack ~protection:Types.Full ~merge_fs ~mem_bytes
      ~extra:[ (app, Types.Isolated) ]
      ()
  in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "SQLITE")) in
  { os; mon = sys.Libos.Boot.mon }

let unikraft_system mem_bytes =
  let app = Builder.component ~heap_pages:512 ~stack_pages:4 "SQLITE" in
  let sys =
    Libos.Boot.fs_stack ~protection:Types.None_ ~mem_bytes
      ~extra:[ (app, Types.Isolated) ]
      ()
  in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "SQLITE")) in
  { os; mon = sys.Libos.Boot.mon }

let make ?(mem_bytes = 192 * 1024 * 1024) = function
  | Linux ->
      let mon, ctx = plain_app_system mem_bytes in
      { os = Minidb.Os_iface.linux ctx; mon }
  | Unikraft -> unikraft_system mem_bytes
  | Genode3 k ->
      let mon, ctx = plain_app_system mem_bytes in
      { os = genode_os k ~split:false ctx; mon }
  | Genode4 k ->
      let mon, ctx = plain_app_system mem_bytes in
      { os = genode_os k ~split:true ctx; mon }
  | Cubicle3 -> cubicle_system mem_bytes ~merge_fs:true
  | Cubicle4 -> cubicle_system mem_bytes ~merge_fs:false

let speedtest_run ?(n = 200) inst =
  let cost = Monitor.cost inst.mon in
  Minidb.Speedtest.run_all inst.os ~path:"/speed.db" ~n ~measure:(fun f ->
      let c0 = Hw.Cost.cycles cost in
      f ();
      Hw.Cost.cycles cost - c0)

let speedtest_per_query ?n config = speedtest_run ?n (make config)

let speedtest_total_cycles ?n config =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (speedtest_per_query ?n config)
