(* Tests for the persistent-disk stack: BLKDEV and the UKFAT backend,
   including persistence across reboots of the whole simulated system. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let app_component () = Builder.component ~heap_pages:64 ~stack_pages:4 "APP"

let boot_fat ?(protection = Types.Full) disk =
  Libos.Boot.fat_stack ~protection ~extra:[ (app_component (), Types.Isolated) ] ~disk ()

let mk_disk () = Libos.Blkdev.create_disk ~sectors:4096 (* 2 MiB *)

(* --- blkdev ------------------------------------------------------------------ *)

let test_blkdev_rw () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let blk = Api.cid_of ctx "BLKDEV" in
  let buf = Api.malloc_page_aligned ctx 4096 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:4096;
  Api.window_open ctx wid blk;
  Monitor.run_as sys.Libos.Boot.mon (Api.self ctx) (fun () ->
      Api.write_string ctx buf "sector payload";
      (* use a sector far beyond the file system's area *)
      check_int "write ok" 0 (Api.call ctx (Api.import "blk_write") [| buf; 4000; 1 |]);
      Api.memset ctx buf 4096 '\000';
      check_int "read ok" 0 (Api.call ctx (Api.import "blk_read") [| buf; 4000; 1 |]);
      check_str "roundtrip" "sector payload" (Api.read_string ctx buf 14))

let test_blkdev_bounds () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let buf = Api.malloc_page_aligned ctx 4096 in
  check_int "past end" Libos.Sysdefs.einval
    (Api.call ctx (Api.import "blk_read") [| buf; 4095; 2 |]);
  check_int "too many sectors" Libos.Sysdefs.einval
    (Api.call ctx (Api.import "blk_read") [| buf; 0; 9 |]);
  check_int "capacity" 4096 (Api.call ctx (Api.import "blk_capacity") [||])

let test_blkdev_needs_window () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let buf = Api.malloc_page_aligned ctx 4096 in
  (* no window for BLKDEV: the DMA copy must fault *)
  check_bool "unwindowed transfer faults" true
    (match
       Monitor.run_as sys.Libos.Boot.mon (Api.self ctx) (fun () ->
           Api.call ctx (Api.import "blk_write") [| buf; 4000; 1 |])
     with
    | _ -> false
    | exception Hw.Fault.Violation _ -> true)

(* --- fatfs through the VFS ------------------------------------------------------ *)

let test_fat_write_read () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/hello" "persistent hello";
  check_str "roundtrip" "persistent hello" (Libos.Fileio.read_file fio "/hello");
  check_int "one file" 1 (Libos.Fatfs.file_count (Option.get sys.Libos.Boot.fatfs));
  check_bool "device saw traffic" true
    (Libos.Blkdev.writes (Option.get sys.Libos.Boot.blkdev) > 0)

let test_fat_large_file_chain () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  (* spans many 4 KiB clusters *)
  let contents = String.init 50_000 (fun i -> Char.chr (i mod 251)) in
  Libos.Fileio.write_file fio "/big" contents;
  check_str "50 kB across clusters" contents (Libos.Fileio.read_file fio "/big")

let test_fat_persistence_across_reboot () =
  let disk = mk_disk () in
  (* first boot: write files, then the whole system goes away *)
  let sys1 = boot_fat disk in
  let fio1 = Libos.Fileio.make (Libos.Boot.app_ctx sys1 "APP") in
  Libos.Fileio.write_file fio1 "/config" "across reboots";
  Libos.Fileio.write_file fio1 "/data" (String.make 9000 'p');
  (* second boot on the same disk: contents must still be there *)
  let sys2 = boot_fat disk in
  let fio2 = Libos.Fileio.make (Libos.Boot.app_ctx sys2 "APP") in
  check_bool "config exists" true (Libos.Fileio.exists fio2 "/config");
  check_str "config content" "across reboots" (Libos.Fileio.read_file fio2 "/config");
  check_str "data content" (String.make 9000 'p') (Libos.Fileio.read_file fio2 "/data");
  check_int "both files found" 2 (Libos.Fatfs.file_count (Option.get sys2.Libos.Boot.fatfs))

let test_fat_unlink_frees_clusters () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let fat = Option.get sys.Libos.Boot.fatfs in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  let free0 = Libos.Fatfs.free_clusters fat in
  Libos.Fileio.write_file fio "/tmp" (String.make 20_000 'x');
  check_bool "clusters consumed" true (Libos.Fatfs.free_clusters fat < free0);
  check_int "unlink" 0 (Libos.Fileio.unlink fio "/tmp");
  check_int "clusters released" free0 (Libos.Fatfs.free_clusters fat)

let test_fat_truncate () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let fat = Option.get sys.Libos.Boot.fatfs in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/t" (String.make 20_000 'q');
  let before = Libos.Fatfs.free_clusters fat in
  let fd = Libos.Fileio.open_file fio "/t" ~create:false in
  check_int "truncate" 0 (Libos.Fileio.truncate fio ~fd ~size:100);
  check_int "size" 100 (Libos.Fileio.file_size fio fd);
  check_bool "clusters freed" true (Libos.Fatfs.free_clusters fat > before);
  check_str "prefix kept" (String.make 100 'q') (Libos.Fileio.read_file fio "/t")

let test_fat_rename_replace () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/a" "AAA";
  Libos.Fileio.write_file fio "/b" "BBB";
  check_int "rename" 0 (Libos.Fileio.rename fio ~old_name:"/a" ~new_name:"/b");
  check_bool "a gone" false (Libos.Fileio.exists fio "/a");
  check_str "b replaced" "AAA" (Libos.Fileio.read_file fio "/b");
  check_int "one file" 1 (Libos.Fatfs.file_count (Option.get sys.Libos.Boot.fatfs))

let test_fat_sparse () =
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/s" ~create:true in
  let buf = Api.malloc_page_aligned ctx 16 in
  Api.write_string ctx buf "tail";
  check_int "write at 9000" 4 (Libos.Fileio.pwrite fio ~fd ~buf ~len:4 ~off:9000);
  check_int "size" 9004 (Libos.Fileio.file_size fio fd);
  (* earlier clusters were allocated zeroed *)
  check_int "read hole" 16 (Libos.Fileio.pread fio ~fd ~buf ~len:16 ~off:100);
  check_str "zeroes" (String.make 16 '\000') (Api.read_string ctx buf 16)

let test_fat_disk_full () =
  let small = Libos.Blkdev.create_disk ~sectors:256 (* 128 KiB *) in
  let sys = boot_fat small in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  check_bool "disk fills up" true
    (match Libos.Fileio.write_file fio "/huge" (String.make 200_000 'z') with
    | () -> false
    | exception Types.Error _ -> true)

let test_fat_database_runs_on_it () =
  (* the whole database engine, unchanged, on the persistent backend *)
  let disk = Libos.Blkdev.create_disk ~sectors:16384 (* 8 MiB *) in
  let sys = boot_fat disk in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP")) in
  let db = Minidb.Db.open_db os ~path:"/fat.db" in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 200 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  check_int "rows" 200 (Minidb.Db.row_count t);
  Minidb.Db.close db;
  (* reboot and reopen the same database *)
  let sys2 = boot_fat disk in
  let os2 = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys2 "APP")) in
  let db2 = Minidb.Db.open_db os2 ~path:"/fat.db" in
  check_int "rows after reboot" 200 (Minidb.Db.row_count (Minidb.Db.find_table db2 "t"))

let test_fat_isolation_holds () =
  (* the same window discipline applies to the new backend *)
  let disk = mk_disk () in
  let sys = boot_fat disk in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  let fd = Libos.Fileio.open_file fio "/w" ~create:true in
  let buf = Api.malloc_page_aligned ctx 64 in
  check_bool "unwindowed vfs_pwrite faults" true
    (match Api.call ctx (Api.import "vfs_pwrite") [| fd; buf; 16; 0 |] with
    | _ -> false
    | exception Hw.Fault.Violation _ -> true)

let () =
  Alcotest.run "fatfs"
    [
      ( "blkdev",
        [
          Alcotest.test_case "rw" `Quick test_blkdev_rw;
          Alcotest.test_case "bounds" `Quick test_blkdev_bounds;
          Alcotest.test_case "needs window" `Quick test_blkdev_needs_window;
        ] );
      ( "fatfs",
        [
          Alcotest.test_case "write/read" `Quick test_fat_write_read;
          Alcotest.test_case "large chain" `Quick test_fat_large_file_chain;
          Alcotest.test_case "persistence" `Quick test_fat_persistence_across_reboot;
          Alcotest.test_case "unlink frees" `Quick test_fat_unlink_frees_clusters;
          Alcotest.test_case "truncate" `Quick test_fat_truncate;
          Alcotest.test_case "rename replace" `Quick test_fat_rename_replace;
          Alcotest.test_case "sparse" `Quick test_fat_sparse;
          Alcotest.test_case "disk full" `Quick test_fat_disk_full;
          Alcotest.test_case "database on fat" `Quick test_fat_database_runs_on_it;
          Alcotest.test_case "isolation holds" `Quick test_fat_isolation_holds;
        ] );
    ]
