(* Cross-cutting integration tests: multiple applications in one
   system, failure injection, policy matrices, and reference-model
   property tests for the file systems. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- two applications side by side --------------------------------------------- *)

let test_nginx_and_database_coexist () =
  (* The web server and the database engine as two isolated apps over
     one library OS instance, each with private state. *)
  let db_app = Builder.component ~heap_pages:256 ~stack_pages:4 "DBAPP" in
  let sys =
    Libos.Boot.net_stack ~protection:Types.Full ~mem_bytes:(256 * 1024 * 1024)
      ~extra:[ (Httpd.Server.component (), Types.Isolated); (db_app, Types.Isolated) ]
      ()
  in
  (* web side *)
  Libos.Boot.populate sys ~as_app:"NGINX" [ ("/page.html", "<p>served</p>") ];
  let server = Httpd.Server.start sys in
  let siege = Httpd.Siege.make sys server in
  (* db side *)
  let db_ctx = Libos.Boot.app_ctx sys "DBAPP" in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make db_ctx) in
  Monitor.run_as sys.Libos.Boot.mon (Api.self db_ctx) (fun () ->
      let db = Minidb.Db.open_db os ~path:"/shop.db" in
      let t = Minidb.Db.create_table db "orders" in
      Minidb.Db.with_txn db (fun () ->
          for i = 1 to 100 do
            ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
          done);
      (* interleave: serve a request in the middle of database work *)
      let r = Httpd.Siege.fetch siege "/page.html" in
      check_str "web ok" "<p>served</p>" r.Httpd.Siege.body;
      check_int "db ok" 100 (Minidb.Db.row_count t);
      Minidb.Db.close db);
  (* both applications' files live in the same RAMFS instance *)
  check_int "both apps' files present" 2 (Libos.Ramfs.file_count sys.ramfs)

let test_db_app_cannot_touch_web_buffers () =
  let db_app = Builder.component ~heap_pages:32 ~stack_pages:2 "DBAPP" in
  let sys =
    Libos.Boot.net_stack ~protection:Types.Full
      ~extra:[ (Httpd.Server.component (), Types.Isolated); (db_app, Types.Isolated) ]
      ()
  in
  let nginx_ctx = Libos.Boot.app_ctx sys "NGINX" in
  let secret = Api.malloc_page_aligned nginx_ctx 64 in
  Monitor.run_as sys.Libos.Boot.mon (Api.self nginx_ctx) (fun () ->
      Api.write_string nginx_ctx secret "session cookie");
  let db_ctx = Libos.Boot.app_ctx sys "DBAPP" in
  check_bool "cross-app read blocked" true
    (match Monitor.run_as sys.Libos.Boot.mon (Api.self db_ctx) (fun () ->
         Api.read_u8 db_ctx secret)
     with
    | _ -> false
    | exception Hw.Fault.Violation _ -> true)

(* --- failure injection ------------------------------------------------------------ *)

let test_component_exception_does_not_wedge_system () =
  (* A component raising mid-call must not corrupt monitor state:
     PKRU, current cubicle and later calls all stay correct. *)
  let sys =
    Libos.Boot.fs_stack ~protection:Types.Full
      ~extra:[ (Builder.component ~heap_pages:32 ~stack_pages:2 "APP", Types.Isolated) ]
      ()
  in
  let mon = sys.Libos.Boot.mon in
  let ramfs = Monitor.lookup_cubicle mon "RAMFS" in
  Monitor.register_exports mon ramfs
    [ { Monitor.sym = "ramfs_crash"; fn = (fun _ _ -> failwith "injected fault"); stack_bytes = 0 } ];
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let fio = Libos.Fileio.make ctx in
  Libos.Fileio.write_file fio "/pre" "before crash";
  (* crash the file system component mid-call, twice *)
  for _ = 1 to 2 do
    (try ignore (Api.call ctx (Api.import "ramfs_crash") [||]) with Failure _ -> ())
  done;
  check_int "cur restored" Monitor.monitor_cid (Monitor.current mon);
  (* the system still works afterwards *)
  Libos.Fileio.write_file fio "/post" "after crash";
  check_str "still serving" "after crash" (Libos.Fileio.read_file fio "/post");
  check_str "old data intact" "before crash" (Libos.Fileio.read_file fio "/pre")

let test_violation_mid_transaction_rolls_back () =
  (* An isolation violation inside a transaction aborts it cleanly. *)
  let app = Builder.component ~heap_pages:128 ~stack_pages:4 "APP" in
  let sys = Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] () in
  let ctx = Libos.Boot.app_ctx sys "APP" in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make ctx) in
  Monitor.run_as sys.Libos.Boot.mon (Api.self ctx) (fun () ->
      let db = Minidb.Db.open_db os ~path:"/tx.db" in
      let t = Minidb.Db.create_table db "t" in
      Minidb.Db.with_txn db (fun () -> ignore (Minidb.Db.insert db t [ Minidb.Record.int 1 ]));
      (* a transaction that trips a protection fault part-way *)
      let vfs_page =
        let rec find p =
          if Monitor.page_owner sys.Libos.Boot.mon p
             = Some (Monitor.lookup_cubicle sys.Libos.Boot.mon "VFSCORE")
          then Hw.Addr.base_of_page p
          else find (p + 1)
        in
        find 0
      in
      (try
         Minidb.Db.with_txn db (fun () ->
             ignore (Minidb.Db.insert db t [ Minidb.Record.int 2 ]);
             (* illegal: the app touches VFSCORE memory *)
             ignore (Api.read_u8 ctx vfs_page))
       with Hw.Fault.Violation _ -> ());
      check_int "partial insert rolled back" 1 (Minidb.Db.row_count t);
      Minidb.Db.close db)

(* --- policy x protection matrix ------------------------------------------------------ *)

let test_write_path_under_all_policies () =
  List.iter
    (fun mapping ->
      List.iter
        (fun revocation ->
          let policy = { Monitor.mapping; revocation } in
          let app = Builder.component ~heap_pages:64 ~stack_pages:2 "APP" in
          let sys =
            Libos.Boot.fs_stack ~protection:Types.Full ~policy
              ~extra:[ (app, Types.Isolated) ] ()
          in
          let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
          Libos.Fileio.write_file fio "/p" "policy matrix";
          check_str "roundtrip" "policy matrix" (Libos.Fileio.read_file fio "/p"))
        [ `Causal; `Eager_revoke ])
    [ `Lazy_trap; `Eager_on_open ]

let test_virtualised_net_stack_serves () =
  let extras =
    List.init 10 (fun i ->
        (Builder.component ~heap_pages:2 ~stack_pages:1 (Printf.sprintf "PAD%02d" i),
         Types.Isolated))
  in
  let sys =
    Libos.Boot.net_stack ~protection:Types.Full ~virtualise:true
      ~extra:((Httpd.Server.component (), Types.Isolated) :: extras)
      ()
  in
  Libos.Boot.populate sys ~as_app:"NGINX" [ ("/v", String.make 5000 'v') ];
  let server = Httpd.Server.start sys in
  let siege = Httpd.Siege.make sys server in
  let r = Httpd.Siege.fetch siege "/v" in
  check_int "served under virtualised tags" 5000 (String.length r.Httpd.Siege.body);
  check_bool "tags were virtualised" true (Monitor.tag_evictions sys.Libos.Boot.mon >= 0)

(* --- reference-model property tests --------------------------------------------------- *)

(* random file system operation scripts, checked against a Hashtbl of
   OCaml strings *)
type fs_op =
  | Op_write of int * string  (* file index, contents *)
  | Op_append of int * string
  | Op_delete of int
  | Op_rename of int * int
  | Op_read of int
  | Op_truncate of int * int

let fs_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i s -> Op_write (i, s)) (int_bound 4) (string_size (int_bound 600));
        map2 (fun i s -> Op_append (i, s)) (int_bound 4) (string_size (int_bound 300));
        map (fun i -> Op_delete i) (int_bound 4);
        map2 (fun a b -> Op_rename (a, b)) (int_bound 4) (int_bound 4);
        map (fun i -> Op_read i) (int_bound 4);
        map2 (fun i n -> Op_truncate (i, n)) (int_bound 4) (int_bound 500);
      ])

let apply_ref (reference : (string, string) Hashtbl.t) name = function
  | Op_write (_, s) -> Hashtbl.replace reference name s
  | Op_append (_, s) ->
      Hashtbl.replace reference name (Option.value ~default:"" (Hashtbl.find_opt reference name) ^ s)
  | Op_delete _ -> Hashtbl.remove reference name
  | Op_truncate (_, n) -> (
      match Hashtbl.find_opt reference name with
      | Some s ->
          let cur = String.length s in
          Hashtbl.replace reference name
            (if n <= cur then String.sub s 0 n else s ^ String.make (n - cur) '\000')
      | None -> ())
  | Op_rename _ | Op_read _ -> ()

let run_fs_script fio ops =
  let reference = Hashtbl.create 8 in
  let name i = Printf.sprintf "/f%d" i in
  List.iter
    (fun op ->
      (match op with
      | Op_write (i, s) -> Libos.Fileio.write_file fio (name i) s
      | Op_append (i, s) ->
          let fd = Libos.Fileio.open_file fio (name i) ~create:true in
          let off = Libos.Fileio.file_size fio fd in
          if String.length s > 0 then begin
            let ctx = Libos.Fileio.ctx fio in
            let buf = Api.malloc_page_aligned ctx (String.length s) in
            Api.write_string ctx buf s;
            ignore (Libos.Fileio.pwrite fio ~fd ~buf ~len:(String.length s) ~off);
            Api.free ctx buf
          end;
          ignore (Libos.Fileio.close_file fio fd)
      | Op_delete i -> ignore (Libos.Fileio.unlink fio (name i))
      | Op_rename (a, b) ->
          if a <> b && Libos.Fileio.exists fio (name a) then begin
            ignore (Libos.Fileio.rename fio ~old_name:(name a) ~new_name:(name b));
            (match Hashtbl.find_opt reference (name a) with
            | Some s ->
                Hashtbl.remove reference (name a);
                Hashtbl.replace reference (name b) s
            | None -> ())
          end
      | Op_truncate (i, n) ->
          if Libos.Fileio.exists fio (name i) then begin
            let fd = Libos.Fileio.open_file fio (name i) ~create:false in
            ignore (Libos.Fileio.truncate fio ~fd ~size:n);
            ignore (Libos.Fileio.close_file fio fd)
          end
      | Op_read _ -> ());
      match op with
      | Op_rename _ -> ()
      | Op_truncate (i, _) ->
          if Hashtbl.mem reference (name i) then apply_ref reference (name i) op
      | Op_write (i, _) | Op_append (i, _) | Op_delete i | Op_read i ->
          apply_ref reference (name i) op)
    ops;
  (* final state must agree with the reference *)
  Hashtbl.fold
    (fun name contents acc ->
      acc && Libos.Fileio.exists fio name && Libos.Fileio.read_file fio name = contents)
    reference true
  && List.for_all
       (fun i ->
         Hashtbl.mem reference (name i) = Libos.Fileio.exists fio (name i))
       [ 0; 1; 2; 3; 4 ]

let fs_op_print op =
  let e = String.escaped in
  match op with
  | Op_write (i, s) -> Printf.sprintf "write(%d,%S)" i (e s)
  | Op_append (i, s) -> Printf.sprintf "append(%d,%S)" i (e s)
  | Op_delete i -> Printf.sprintf "delete(%d)" i
  | Op_rename (a, b) -> Printf.sprintf "rename(%d,%d)" a b
  | Op_read i -> Printf.sprintf "read(%d)" i
  | Op_truncate (i, n) -> Printf.sprintf "truncate(%d,%d)" i n

let prop_ramfs_matches_reference =
  QCheck.Test.make ~count:25 ~name:"ramfs: random op scripts match a reference model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map fs_op_print ops))
       QCheck.Gen.(list_size (int_range 1 25) fs_op_gen))
    (fun ops ->
      let app = Builder.component ~heap_pages:128 ~stack_pages:2 "APP" in
      let sys = Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] () in
      let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
      run_fs_script fio ops)

let prop_fatfs_matches_reference =
  QCheck.Test.make ~count:20 ~name:"fatfs: random op scripts match a reference model"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) fs_op_gen))
    (fun ops ->
      let app = Builder.component ~heap_pages:128 ~stack_pages:2 "APP" in
      let disk = Libos.Blkdev.create_disk ~sectors:8192 in
      let sys = Libos.Boot.fat_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] ~disk () in
      let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
      run_fs_script fio ops)

let prop_tcp_stream_integrity =
  (* arbitrary chunks sent over a connection arrive intact and ordered *)
  QCheck.Test.make ~count:20 ~name:"lwip: stream delivers exactly the sent bytes"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 10) (string_size (int_range 1 4000))))
    (fun chunks ->
      let app = Builder.component ~heap_pages:64 ~stack_pages:2 "APP" in
      let sys = Libos.Boot.net_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] () in
      let netdev = Option.get sys.Libos.Boot.netdev in
      let ctx = Libos.Boot.app_ctx sys "APP" in
      let lwip_cid = Api.cid_of ctx "LWIP" in
      Monitor.run_as sys.Libos.Boot.mon (Api.self ctx) (fun () ->
          ignore (Api.call ctx (Api.import "lwip_listen") [| 80 |]);
          Libos.Netdev.host_inject netdev
            (Libos.Lwip.Frame.encode ~conn:1 ~kind:Libos.Lwip.Frame.Syn ~payload:"" ());
          let conn = Api.call ctx (Api.import "lwip_accept") [||] in
          let buf = Api.malloc_page_aligned ctx 8192 in
          let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
          Api.window_add ctx wid ~ptr:buf ~size:8192;
          Api.window_open ctx wid lwip_cid;
          let sent =
            List.map
              (fun chunk ->
                Api.write_string ctx buf chunk;
                ignore
                  (Api.call ctx (Api.import "lwip_send")
                    [| conn; buf; String.length chunk |]);
                chunk)
              chunks
          in
          let reasm = Libos.Lwip.Reassembly.create () in
          List.iter
            (fun f ->
              let c, kind, seq, payload = Libos.Lwip.Frame.decode f in
              if c = 1 && kind = Libos.Lwip.Frame.Data then
                Libos.Lwip.Reassembly.push reasm ~seq payload)
            (Libos.Netdev.host_collect netdev);
          Libos.Lwip.Reassembly.pop_ready reasm = String.concat "" sent))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ramfs_matches_reference; prop_fatfs_matches_reference; prop_tcp_stream_integrity ]

let () =
  Alcotest.run "integration"
    [
      ( "multi-app",
        [
          Alcotest.test_case "nginx + db coexist" `Quick test_nginx_and_database_coexist;
          Alcotest.test_case "cross-app isolation" `Quick test_db_app_cannot_touch_web_buffers;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "component crash" `Quick test_component_exception_does_not_wedge_system;
          Alcotest.test_case "violation in txn" `Quick test_violation_mid_transaction_rolls_back;
        ] );
      ( "matrices",
        [
          Alcotest.test_case "policy matrix" `Quick test_write_path_under_all_policies;
          Alcotest.test_case "virtualised serving" `Quick test_virtualised_net_stack_serves;
        ] );
      ("properties", qsuite);
    ]
