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
  let meta_call f = session_call 32 (fun () -> charge_backend backend_rpc 32; f ()) in
  (* file store -> session buffer (-> application), with the
     CORE <-> RAMFS packet stream on the backend side when split *)
  let stage data ~pos ~len = if split then Rpc.copy_in_sub session data ~pos ~len in
  Minidb.Os_iface.host_store
    {
      op =
        (fun kind f ->
          match kind with
          | Minidb.Os_iface.Meta -> meta_call f
          | Minidb.Os_iface.Data -> session_call 32 f);
      on_read =
        (fun data ~pos ~len ->
          charge_backend backend_rpc len;
          stage data ~pos ~len);
      on_write =
        (fun data ~pos ~len ->
          stage data ~pos ~len;
          charge_backend backend_rpc len);
    }
    ctx

(* --- configuration instances ----------------------------------------------- *)

let plain_app_system mem_bytes =
  let mon = Monitor.create ~protection:Types.None_ ~mem_bytes () in
  let cid =
    Monitor.create_cubicle mon ~name:"APP" ~kind:Types.Isolated ~heap_pages:512
      ~stack_pages:4
  in
  (mon, Monitor.ctx_for mon cid)

(* The library OS deployments: Unikraft is CubicleOS-4 without
   protection. The application cubicle carries the paper's name for it. *)
let libos_system mem_bytes ~protection ~merge_fs =
  let app = Builder.component ~heap_pages:512 ~stack_pages:4 "SQLITE" in
  let sys =
    Libos.Boot.fs_stack ~protection ~merge_fs ~mem_bytes ~extra:[ (app, Types.Isolated) ] ()
  in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "SQLITE")) in
  { os; mon = sys.Libos.Boot.mon }

let make ?(mem_bytes = 192 * 1024 * 1024) = function
  | Linux ->
      let mon, ctx = plain_app_system mem_bytes in
      { os = Minidb.Os_iface.linux ctx; mon }
  | Unikraft -> libos_system mem_bytes ~protection:Types.None_ ~merge_fs:false
  | Genode3 k ->
      let mon, ctx = plain_app_system mem_bytes in
      { os = genode_os k ~split:false ctx; mon }
  | Genode4 k ->
      let mon, ctx = plain_app_system mem_bytes in
      { os = genode_os k ~split:true ctx; mon }
  | Cubicle3 -> libos_system mem_bytes ~protection:Types.Full ~merge_fs:true
  | Cubicle4 -> libos_system mem_bytes ~protection:Types.Full ~merge_fs:false

let speedtest_run ?(n = 200) inst =
  let cost = Monitor.cost inst.mon in
  Minidb.Speedtest.run_all inst.os ~path:"/speed.db" ~n ~measure:(fun f ->
      let c0 = Hw.Cost.cycles cost in
      f ();
      Hw.Cost.cycles cost - c0)

let speedtest_per_query ?n config = speedtest_run ?n (make config)

let speedtest_total_cycles ?n config =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (speedtest_per_query ?n config)
