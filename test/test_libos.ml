(* Integration tests for the library OS substrate: the Figure-2 write
   path (app -> VFSCORE -> RAMFS -> LIBC memcpy), the network stack,
   and isolation along those paths. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let is_violation f = match f () with
  | _ -> false
  | exception Hw.Fault.Violation _ -> true

let app_component () = Builder.component ~heap_pages:64 ~stack_pages:4 "APP"

let boot_fs ?protection ?merge_fs () =
  Libos.Boot.fs_stack ?protection ?merge_fs
    ~extra:[ (app_component (), Types.Isolated) ]
    ()

(* --- write path ------------------------------------------------------------ *)

let test_write_read_roundtrip () =
  let sys = boot_fs () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/hello.txt" "Hello, CubicleOS!";
  check_str "roundtrip" "Hello, CubicleOS!" (Libos.Fileio.read_file fio "/hello.txt");
  check_int "one file" 1 (Libos.Ramfs.file_count sys.ramfs)

let test_write_read_all_protections () =
  List.iter
    (fun protection ->
      let sys = boot_fs ~protection () in
      let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
      Libos.Fileio.write_file fio "/data.bin" (String.make 10000 'x');
      check_str
        (Printf.sprintf "roundtrip at %s" (Types.protection_to_string protection))
        (String.make 10000 'x')
        (Libos.Fileio.read_file fio "/data.bin"))
    [ Types.None_; Types.Trampolines; Types.Mpk; Types.Full ]

let test_write_without_window_faults () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/f" ~create:true in
  let buf = Api.malloc_page_aligned ctx 64 in
  Api.write_string ctx buf "secret data here";
  (* calling the VFS directly without opening a window: RAMFS's memcpy
     cannot read the app's buffer *)
  check_bool "unwindowed write faults" true
    (is_violation (fun () ->
         ignore (Api.call ctx (Api.import "vfs_pwrite") [| fd; buf; 16; 0 |])))

let test_window_only_for_vfs_not_backend_faults () =
  (* The nested-call rule: opening for VFSCORE alone is not enough,
     RAMFS is the cubicle that actually touches the buffer. *)
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/f" ~create:true in
  let buf = Api.malloc_page_aligned ctx 64 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:64;
  Api.window_open ctx wid (Api.cid_of ctx "VFSCORE");
  check_bool "backend window missing faults" true
    (is_violation (fun () ->
         ignore (Api.call ctx (Api.import "vfs_pwrite") [| fd; buf; 16; 0 |])))

let test_large_file_spanning_chunks () =
  let sys = boot_fs () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  let contents = String.init 20000 (fun i -> Char.chr (i mod 251)) in
  Libos.Fileio.write_file fio "/big" contents;
  check_str "20000 bytes across 5 chunks" contents (Libos.Fileio.read_file fio "/big")

let test_sparse_write () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/sparse" ~create:true in
  let buf = Api.malloc_page_aligned ctx 16 in
  Api.write_string ctx buf "tail";
  check_int "write at offset" 4 (Libos.Fileio.pwrite fio ~fd ~buf ~len:4 ~off:10000);
  check_int "size includes hole" 10004 (Libos.Fileio.file_size fio fd);
  (* the hole reads back as zeroes *)
  let rbuf = Api.malloc_page_aligned ctx 16 in
  check_int "read from hole" 16 (Libos.Fileio.pread fio ~fd ~buf:rbuf ~len:16 ~off:100);
  check_str "zeroes" (String.make 16 '\000') (Api.read_string ctx rbuf 16)

let test_pread_past_eof () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/short" ~create:true in
  let buf = Api.malloc_page_aligned ctx 16 in
  Api.write_string ctx buf "abc";
  ignore (Libos.Fileio.pwrite fio ~fd ~buf ~len:3 ~off:0);
  check_int "read at eof" 0 (Libos.Fileio.pread fio ~fd ~buf ~len:16 ~off:3);
  check_int "read across eof" 2 (Libos.Fileio.pread fio ~fd ~buf ~len:16 ~off:1)

let test_unlink_rename_exists () =
  let sys = boot_fs () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/a" "A";
  Libos.Fileio.write_file fio "/b" "B";
  check_bool "a exists" true (Libos.Fileio.exists fio "/a");
  check_int "rename a->c" 0 (Libos.Fileio.rename fio ~old_name:"/a" ~new_name:"/c");
  check_bool "a gone" false (Libos.Fileio.exists fio "/a");
  check_str "c has contents" "A" (Libos.Fileio.read_file fio "/c");
  (* rename over existing replaces *)
  check_int "rename c->b" 0 (Libos.Fileio.rename fio ~old_name:"/c" ~new_name:"/b");
  check_str "b replaced" "A" (Libos.Fileio.read_file fio "/b");
  check_int "unlink b" 0 (Libos.Fileio.unlink fio "/b");
  check_bool "b gone" false (Libos.Fileio.exists fio "/b");
  check_int "unlink missing" Libos.Sysdefs.enoent (Libos.Fileio.unlink fio "/b");
  check_int "no files left" 0 (Libos.Ramfs.file_count sys.ramfs)

let test_truncate_frees_chunks () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  Libos.Fileio.write_file fio "/t" (String.make 20000 'z');
  let fd = Libos.Fileio.open_file fio "/t" ~create:false in
  check_int "truncate" 0 (Libos.Fileio.truncate fio ~fd ~size:100);
  check_int "new size" 100 (Libos.Fileio.file_size fio fd);
  check_int "bytes accounted" 100 (Libos.Ramfs.total_bytes sys.ramfs)

let test_open_missing_fails () =
  let sys = boot_fs () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  check_int "enoent" Libos.Sysdefs.enoent (Libos.Fileio.open_file fio "/nope" ~create:false)

let test_bad_fd () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  check_int "ebadf" Libos.Sysdefs.ebadf (Api.call ctx (Api.import "vfs_size") [| 99 |]);
  check_int "close ebadf" Libos.Sysdefs.ebadf
    (Api.call ctx (Api.import "vfs_close") [| 99 |])

let test_merged_fs_stack () =
  (* Figure 9a: VFSCORE+RAMFS in one cubicle. Same behaviour, fewer
     cross-cubicle edges. *)
  let sys = boot_fs ~merge_fs:true () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/m" "merged";
  check_str "roundtrip" "merged" (Libos.Fileio.read_file fio "/m");
  (* no VFSCORE->RAMFS cross-cubicle edge exists *)
  let vfs = Builder.cid sys.built "VFSCORE" in
  check_int "no self edge counted" 0
    (Stats.calls_between (Monitor.stats sys.mon) ~caller:vfs ~callee:vfs)

let test_fig2_call_edges () =
  (* The write path produces the Figure 2 edges: APP->VFSCORE,
     VFSCORE->RAMFS, and shared-cubicle memcpy calls. *)
  let sys = boot_fs () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  let stats = Monitor.stats sys.mon in
  let before = Stats.snapshot stats in
  Libos.Fileio.write_file fio "/edges" "x";
  let app = Builder.cid sys.built "APP" in
  let vfs = Builder.cid sys.built "VFSCORE" in
  let ramfs = Builder.cid sys.built "RAMFS" in
  let edges = Stats.diff_edges stats ~since:before in
  check_bool "app->vfs" true (List.mem_assoc (app, vfs) edges);
  check_bool "vfs->ramfs" true (List.mem_assoc (vfs, ramfs) edges);
  check_bool "memcpy used" true (Stats.calls_to_sym stats "memcpy" > 0)

(* --- allocator component ---------------------------------------------------- *)

let test_alloc_assigns_to_caller () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let page = Api.call ctx (Api.import "uk_palloc") [| 2 |] in
  check_bool "owned by app" true
    (Monitor.page_owner sys.mon (Hw.Addr.page_of page)
    = Some (Builder.cid sys.built "APP"));
  check_int "free ok" 0 (Api.call ctx (Api.import "uk_pfree") [| page |])

let test_time_monotonic () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let t1 = Api.call ctx (Api.import "uk_time_ns") [||] in
  let fio = Libos.Fileio.make ctx in
  Libos.Fileio.write_file fio "/tick" "x";
  let t2 = Api.call ctx (Api.import "uk_time_ns") [||] in
  check_bool "time advanced" true (t2 > t1)

let test_plat_console () =
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  String.iter
    (fun c -> ignore (Api.call ctx (Api.import "plat_putc") [| Char.code c |]))
    "boot ok";
  check_str "console" "boot ok" (Libos.Plat.console_contents sys.plat)

let test_plat_rand_deterministic () =
  let sys1 = boot_fs () and sys2 = boot_fs () in
  let c1 = Libos.Boot.app_ctx sys1 "APP" and c2 = Libos.Boot.app_ctx sys2 "APP" in
  let seq ctx = List.init 5 (fun _ -> Api.call ctx (Api.import "plat_rand") [||]) in
  check_bool "same sequence" true (seq c1 = seq c2)

(* --- network stack ------------------------------------------------------------ *)

let boot_net ?protection () =
  Libos.Boot.net_stack ?protection ~extra:[ (app_component (), Types.Isolated) ] ()

(* App-side socket helper mirroring Fileio's window discipline. *)
let net_window ctx ~lwip_cid ~ptr ~size f =
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr ~size;
  Api.window_open ctx wid lwip_cid;
  Fun.protect ~finally:(fun () -> Api.window_destroy ctx wid) f

let test_tcp_echo () =
  let sys = boot_net () in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let lwip_cid = Api.cid_of ctx "LWIP" in
  check_int "listen" 0 (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  (* host client opens conn 1 and sends a request *)
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:1 ~kind:Syn ~payload:"" ());
  Libos.Netdev.host_inject netdev
    (Libos.Lwip.Frame.encode ~conn:1 ~kind:Data ~payload:"ping" ());
  let conn = Api.call ctx (Api.import "lwip_accept") [||] in
  check_int "accepted conn" 1 conn;
  let buf = Api.malloc_page_aligned ctx 4096 in
  let n =
    net_window ctx ~lwip_cid ~ptr:buf ~size:4096 (fun () ->
        Api.call ctx (Api.import "lwip_recv") [| conn; buf; 4096 |])
  in
  check_int "received" 4 n;
  check_str "payload" "ping" (Api.read_string ctx buf 4);
  (* echo it back *)
  let sent =
    net_window ctx ~lwip_cid ~ptr:buf ~size:4096 (fun () ->
        Api.call ctx (Api.import "lwip_send") [| conn; buf; n |])
  in
  check_int "sent" 4 sent;
  let frames = Libos.Netdev.host_collect netdev in
  check_int "one frame out" 1 (List.length frames);
  let cid, kind, seq, payload = Libos.Lwip.Frame.decode (List.hd frames) in
  check_int "conn id" 1 cid;
  check_bool "data frame" true (kind = Libos.Lwip.Frame.Data);
  check_int "first segment" 0 seq;
  check_str "echo" "ping" payload

let test_tcp_large_transfer_segments () =
  let sys = boot_net () in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let lwip_cid = Api.cid_of ctx "LWIP" in
  ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:7 ~kind:Syn ~payload:"" ());
  let conn = Api.call ctx (Api.import "lwip_accept") [||] in
  let size = 10_000 in
  let buf = Api.malloc_page_aligned ctx size in
  Api.write_string ctx buf (String.make size 'q');
  let sent =
    net_window ctx ~lwip_cid ~ptr:buf ~size (fun () ->
        Api.call ctx (Api.import "lwip_send") [| conn; buf; size |])
  in
  check_int "all sent" size sent;
  let frames = Libos.Netdev.host_collect netdev in
  check_int "segments" ((size + Libos.Sysdefs.mss - 1) / Libos.Sysdefs.mss)
    (List.length frames);
  let total =
    List.fold_left
      (fun acc f ->
        let _, _, _, p = Libos.Lwip.Frame.decode f in
        acc + String.length p)
      0 frames
  in
  check_int "all bytes arrive" size total

let test_tcp_fin_semantics () =
  let sys = boot_net () in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let lwip_cid = Api.cid_of ctx "LWIP" in
  ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:2 ~kind:Syn ~payload:"" ());
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:2 ~kind:Data ~payload:"x" ());
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:2 ~kind:Fin ~payload:"" ());
  let conn = Api.call ctx (Api.import "lwip_accept") [||] in
  let buf = Api.malloc_page_aligned ctx 64 in
  let n =
    net_window ctx ~lwip_cid ~ptr:buf ~size:64 (fun () ->
        Api.call ctx (Api.import "lwip_recv") [| conn; buf; 64 |])
  in
  check_int "data before fin" 1 n;
  (* after the stream drains, recv reports the closed connection *)
  check_int "ebadf after fin" Libos.Sysdefs.ebadf
    (net_window ctx ~lwip_cid ~ptr:buf ~size:64 (fun () ->
         Api.call ctx (Api.import "lwip_recv") [| conn; buf; 64 |]))

let test_out_of_order_reassembly () =
  (* frames injected out of order arrive on the stream in order *)
  let sys = boot_net () in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let lwip_cid = Api.cid_of ctx "LWIP" in
  ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:4 ~kind:Syn ~payload:"" ());
  (* sequence 2, then 0, then 1 *)
  Libos.Netdev.host_inject netdev
    (Libos.Lwip.Frame.encode ~seq:2 ~conn:4 ~kind:Data ~payload:"gamma" ());
  Libos.Netdev.host_inject netdev
    (Libos.Lwip.Frame.encode ~seq:0 ~conn:4 ~kind:Data ~payload:"alpha" ());
  Libos.Netdev.host_inject netdev
    (Libos.Lwip.Frame.encode ~seq:1 ~conn:4 ~kind:Data ~payload:"beta!" ());
  let conn = Api.call ctx (Api.import "lwip_accept") [||] in
  let buf = Api.malloc_page_aligned ctx 64 in
  let collected = Buffer.create 16 in
  let rec drain () =
    let n =
      net_window ctx ~lwip_cid ~ptr:buf ~size:64 (fun () ->
          Api.call ctx (Api.import "lwip_recv") [| conn; buf; 64 |])
    in
    if n > 0 then begin
      Buffer.add_string collected (Api.read_string ctx buf n);
      drain ()
    end
  in
  drain ();
  check_str "in order despite arrival order" "alphabeta!gamma" (Buffer.contents collected)

let test_reassembly_helper () =
  let r = Libos.Lwip.Reassembly.create () in
  Libos.Lwip.Reassembly.push r ~seq:1 "B";
  check_int "gap parks" 1 (Libos.Lwip.Reassembly.pending r);
  check_str "nothing ready" "" (Libos.Lwip.Reassembly.pop_ready r);
  Libos.Lwip.Reassembly.push r ~seq:0 "A";
  check_str "gap filled" "AB" (Libos.Lwip.Reassembly.pop_ready r);
  (* duplicates of consumed sequences are ignored *)
  Libos.Lwip.Reassembly.push r ~seq:0 "A";
  check_str "dup dropped" "" (Libos.Lwip.Reassembly.pop_ready r)

let test_accept_empty () =
  let sys = boot_net () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  check_int "eagain" Libos.Sysdefs.eagain (Api.call ctx (Api.import "lwip_accept") [||])

let test_netdev_counts_frames () =
  let sys = boot_net () in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:1 ~kind:Syn ~payload:"" ());
  ignore (Api.call ctx (Api.import "lwip_accept") [||]);
  check_int "rx counted" 1 (Libos.Netdev.rx_frames netdev)

(* The wire on two rings: NETDEV hands the host every transmitted
   frame, ring by ring and in transmit order within a ring, at exactly
   the length it transmitted. Frames are sent straight from the app
   through NETDEV's exports, over a buffer windowed to it. *)
let test_netdev_wire_two_rings () =
  let sys =
    Libos.Boot.net_stack ~nrings:2 ~extra:[ (app_component (), Types.Isolated) ] ()
  in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let buf = Api.malloc_page_aligned ctx 8192 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:8192;
  Api.window_open ctx wid (Api.cid_of ctx "NETDEV");
  let frame ?(seq = 0) kind payload =
    Libos.Lwip.Frame.encode ~seq ~conn:3 ~kind ~payload ()
  in
  let tx ring f =
    Api.write_bytes ctx buf f;
    check_int "tx ok" 0
      (Api.call ctx (Api.import "netdev_tx") [| buf; Bytes.length f; ring |])
  in
  (* a gather frame: header staged at [buf], payload at [buf + 4096] *)
  let tx_gather ring f =
    let h = Libos.Sysdefs.frame_header in
    Api.write_bytes ctx buf (Bytes.sub f 0 h);
    Api.write_bytes ctx (buf + 4096) (Bytes.sub f h (Bytes.length f - h));
    check_int "gather ok" 0
      (Api.call ctx (Api.import "netdev_tx_gather")
        [| buf; h; buf + 4096; Bytes.length f - h; ring |])
  in
  let fin = frame ~seq:2 Libos.Lwip.Frame.Fin "" in
  let one = frame Libos.Lwip.Frame.Data "!" in
  let mss = frame ~seq:1 Libos.Lwip.Frame.Data (String.make Libos.Sysdefs.mss 'm') in
  let gathered =
    frame ~seq:1 Libos.Lwip.Frame.Data (String.init 700 (fun i -> Char.chr (i land 255)))
  in
  let send_all () =
    tx 1 one;
    tx 0 fin;
    tx_gather 1 gathered;
    tx 0 mss
  in
  let expected = [ fin; mss; one; gathered ] in
  let show fs =
    List.map (fun f -> Printf.sprintf "%d:%S" (Bytes.length f) (Bytes.to_string f)) fs
  in
  send_all ();
  Alcotest.(check (list string)) "collect: ring by ring, transmit order" (show expected)
    (show (Libos.Netdev.host_collect netdev));
  check_int "collect empties the wire" 0 (List.length (Libos.Netdev.host_collect netdev));
  send_all ();
  let drained = ref [] in
  Libos.Netdev.host_drain netdev (fun b off len ->
      drained := Bytes.sub b off len :: !drained);
  Alcotest.(check (list string)) "drain: same frames, exact lengths" (show expected)
    (show (List.rev !drained));
  let again = ref 0 in
  Libos.Netdev.host_drain netdev (fun _ _ _ -> incr again);
  check_int "a second drain yields nothing" 0 !again;
  (* a burst of distinct frames far larger than the wire keeps between
     drains, twice: every frame comes back intact and in order. The
     first 256 frames are 1 KiB each, so one ends exactly at a 256 KiB
     chunk boundary. *)
  let burst =
    List.init 1000 (fun i ->
        let n =
          if i < 256 then 1024 - Libos.Sysdefs.frame_header
          else 1 + (i * 7 mod Libos.Sysdefs.mss)
        in
        frame ~seq:i Libos.Lwip.Frame.Data (String.init n (fun j -> Char.chr ((i + j) land 255))))
  in
  for _ = 1 to 2 do
    List.iter (tx 0) burst;
    Alcotest.(check (list string)) "a burst over many chunks" (show burst)
      (show (Libos.Netdev.host_collect netdev))
  done

(* The host bridge only takes frames the device can carry: a runt
   (whose header LWIP would read from the previous frame's leftovers)
   and an oversize frame are rejected and leave the ring as it was; a
   frame of exactly [mtu] bytes goes through. *)
let test_netdev_inject_rejects_bad_frames () =
  let sys = boot_net () in
  let netdev = Option.get sys.netdev in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let lwip_cid = Api.cid_of ctx "LWIP" in
  ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
  Libos.Netdev.host_inject netdev (Libos.Lwip.Frame.encode ~conn:5 ~kind:Syn ~payload:"" ());
  let rejects f =
    match Libos.Netdev.host_inject netdev f with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "runt rejected" true
    (rejects
       (Bytes.sub
          (Libos.Lwip.Frame.encode ~conn:5 ~kind:Data ~payload:"x" ())
          0 (Libos.Sysdefs.frame_header - 1)));
  check_bool "empty frame rejected" true (rejects Bytes.empty);
  check_bool "oversize rejected" true (rejects (Bytes.make (Libos.Sysdefs.mtu + 1) '\000'));
  (* a data frame of exactly [mtu] bytes: longer than [Frame.encode]
     builds, so its header is written by hand *)
  let plen = Libos.Sysdefs.mtu - Libos.Sysdefs.frame_header in
  let payload = String.init plen (fun i -> Char.chr (65 + (i mod 26))) in
  let full = Bytes.make Libos.Sysdefs.mtu '\000' in
  Bytes.set_int32_le full 0 5l;
  Bytes.set_uint8 full 4 1;
  Bytes.set_uint16_le full 9 plen;
  Bytes.blit_string payload 0 full Libos.Sysdefs.frame_header plen;
  check_bool "exact-mtu frame accepted" false (rejects full);
  let conn = Api.call ctx (Api.import "lwip_accept") [||] in
  check_int "accepted" 5 conn;
  let buf = Api.malloc_page_aligned ctx 4096 in
  let n =
    net_window ctx ~lwip_cid ~ptr:buf ~size:4096 (fun () ->
        Api.call ctx (Api.import "lwip_recv") [| conn; buf; 4096 |])
  in
  check_int "whole mtu payload received" plen n;
  check_str "payload intact" payload (Api.read_string ctx buf n);
  check_int "only the two good frames reached the device" 2 (Libos.Netdev.rx_frames netdev)

(* --- fileio window/fd hygiene ------------------------------------------------- *)

let test_with_window_rollback_on_failed_setup () =
  (* Regression: with_window's setup can fail halfway — the range is
     added and the VFSCORE open done, then the backend open fails (the
     backend cubicle is gone). The partial grant used to leak into
     every later use of the shared data window; it must be rolled
     back. *)
  let sys = boot_fs () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/f" ~create:true in
  let buf = Api.malloc_page_aligned ctx 4096 in
  let ramfs_cid = Api.cid_of ctx "RAMFS" in
  Monitor.destroy_cubicle sys.Libos.Boot.mon ramfs_cid;
  let pread () = ignore (Libos.Fileio.pread fio ~fd ~buf ~len:64 ~off:0) in
  Deny.check "pread raises" (No_cubicle ramfs_cid) pread;
  Deny.check "second attempt raises too" (No_cubicle ramfs_cid) pread;
  let tbl = Monitor.windows_of sys.Libos.Boot.mon ctx.Monitor.self in
  let grants_over_buf =
    List.concat_map
      (fun w -> List.filter (fun r -> r.Window.ptr = buf) w.Window.ranges)
      (Window.live_windows tbl)
  in
  check_int "no leaked grant over the buffer" 0 (List.length grants_over_buf);
  check_bool "no window left open for VFSCORE beyond the path window" true
    (List.length
       (List.filter
          (fun w -> Window.is_open_for w (Api.cid_of ctx "VFSCORE"))
          (Window.live_windows tbl))
    <= 1)

let test_fd_table_reuse () =
  (* Regression: closed descriptors go on a free list instead of the
     table growing forever under open/close churn. *)
  let sys = boot_fs () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  List.iter (fun p -> Libos.Fileio.write_file fio p "x") [ "/a"; "/b" ];
  let fd1 = Libos.Fileio.open_file fio "/a" ~create:false in
  let fd2 = Libos.Fileio.open_file fio "/b" ~create:false in
  check_bool "distinct fds" true (fd1 <> fd2);
  ignore (Libos.Fileio.close_file fio fd1);
  let fd3 = Libos.Fileio.open_file fio "/b" ~create:false in
  check_int "closed slot recycled" fd1 fd3;
  for _ = 1 to 100 do
    let fd = Libos.Fileio.open_file fio "/a" ~create:false in
    ignore (Libos.Fileio.close_file fio fd)
  done;
  let fd4 = Libos.Fileio.open_file fio "/a" ~create:false in
  check_bool "churn does not grow the table" true (fd4 <= fd2 + 1)

(* --- populate helper ------------------------------------------------------------ *)

let test_populate () =
  let sys = boot_fs () in
  Libos.Boot.populate sys ~as_app:"APP" [ ("/index.html", "<html/>"); ("/a.bin", "AA") ];
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  check_str "file 1" "<html/>" (Libos.Fileio.read_file fio "/index.html");
  check_str "file 2" "AA" (Libos.Fileio.read_file fio "/a.bin")

(* --- frame codec property --------------------------------------------------------- *)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"lwip frame: encode/decode roundtrip"
    QCheck.(triple (int_bound 100000) (int_bound 100000) (string_of_size (QCheck.Gen.int_bound 1460)))
    (fun (conn, seq, payload) ->
      let f = Libos.Lwip.Frame.encode ~seq ~conn ~kind:Libos.Lwip.Frame.Data ~payload () in
      let c, k, s, p = Libos.Lwip.Frame.decode f in
      c = conn && k = Libos.Lwip.Frame.Data && s = seq && p = payload)

let prop_fs_roundtrip =
  QCheck.Test.make ~count:30 ~name:"fs: arbitrary contents roundtrip"
    QCheck.(string_of_size (QCheck.Gen.int_bound 9000))
    (fun contents ->
      let sys = boot_fs () in
      let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
      Libos.Fileio.write_file fio "/p" contents;
      Libos.Fileio.read_file fio "/p" = contents)

(* [push_with] hands over exactly the stream [push] + [pop_ready]
   would: frames of a stream arrive shuffled, some twice, some stale;
   after every frame both readers hold the same bytes and park the same
   number of frames. *)
let prop_reassembly_push_with =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12) (string_size ~gen:printable (int_bound 6)) >>= fun payloads ->
      let n = List.length payloads in
      list_size (int_bound (3 * n)) (int_bound (n - 1)) >>= fun extra ->
      shuffle_l (List.init n Fun.id @ extra) >|= fun order -> (payloads, order))
  in
  let print (payloads, order) =
    Printf.sprintf "payloads [%s], arrival order [%s]"
      (String.concat "; " (List.map (Printf.sprintf "%S") payloads))
      (String.concat "; " (List.map string_of_int order))
  in
  QCheck.Test.make ~count:300 ~name:"lwip reassembly: push_with delivers what push readies"
    (QCheck.make ~print gen)
    (fun (payloads, order) ->
      let module R = Libos.Lwip.Reassembly in
      let payloads = Array.of_list payloads in
      let a = R.create () and b = R.create () in
      let via_push = Buffer.create 64 and via_deliver = Buffer.create 64 in
      List.for_all
        (fun seq ->
          R.push a ~seq payloads.(seq);
          Buffer.add_string via_push (R.pop_ready a);
          (* the payload as a slice in the middle of a larger frame,
             which is overwritten afterwards as the wire arena is *)
          let p = payloads.(seq) in
          let frame = Bytes.of_string ("<" ^ p ^ ">") in
          R.push_with b ~seq ~deliver:(Buffer.add_subbytes via_deliver) frame ~off:1
            ~len:(String.length p);
          Bytes.fill frame 0 (Bytes.length frame) '#';
          Buffer.contents via_push = Buffer.contents via_deliver && R.pending a = R.pending b)
        order
      && Buffer.contents via_deliver = String.concat "" (Array.to_list payloads)
      && R.pop_ready b = "")

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_frame_roundtrip; prop_fs_roundtrip; prop_reassembly_push_with ]

let () =
  Alcotest.run "libos"
    [
      ( "write path",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "all protections" `Quick test_write_read_all_protections;
          Alcotest.test_case "no window faults" `Quick test_write_without_window_faults;
          Alcotest.test_case "nested window rule" `Quick test_window_only_for_vfs_not_backend_faults;
          Alcotest.test_case "large file" `Quick test_large_file_spanning_chunks;
          Alcotest.test_case "sparse write" `Quick test_sparse_write;
          Alcotest.test_case "pread past eof" `Quick test_pread_past_eof;
          Alcotest.test_case "unlink/rename/exists" `Quick test_unlink_rename_exists;
          Alcotest.test_case "truncate frees" `Quick test_truncate_frees_chunks;
          Alcotest.test_case "open missing" `Quick test_open_missing_fails;
          Alcotest.test_case "bad fd" `Quick test_bad_fd;
          Alcotest.test_case "merged fs" `Quick test_merged_fs_stack;
          Alcotest.test_case "fig2 edges" `Quick test_fig2_call_edges;
          Alcotest.test_case "with_window rollback" `Quick
            test_with_window_rollback_on_failed_setup;
          Alcotest.test_case "fd table reuse" `Quick test_fd_table_reuse;
        ] );
      ( "services",
        [
          Alcotest.test_case "alloc caller" `Quick test_alloc_assigns_to_caller;
          Alcotest.test_case "time monotonic" `Quick test_time_monotonic;
          Alcotest.test_case "console" `Quick test_plat_console;
          Alcotest.test_case "rand deterministic" `Quick test_plat_rand_deterministic;
          Alcotest.test_case "populate" `Quick test_populate;
        ] );
      ( "network",
        [
          Alcotest.test_case "tcp echo" `Quick test_tcp_echo;
          Alcotest.test_case "large transfer" `Quick test_tcp_large_transfer_segments;
          Alcotest.test_case "fin semantics" `Quick test_tcp_fin_semantics;
          Alcotest.test_case "out-of-order frames" `Quick test_out_of_order_reassembly;
          Alcotest.test_case "reassembly helper" `Quick test_reassembly_helper;
          Alcotest.test_case "accept empty" `Quick test_accept_empty;
          Alcotest.test_case "frame counters" `Quick test_netdev_counts_frames;
          Alcotest.test_case "wire on two rings" `Quick test_netdev_wire_two_rings;
          Alcotest.test_case "inject rejects bad frames" `Quick
            test_netdev_inject_rejects_bad_frames;
        ] );
      ("properties", qsuite);
    ]
