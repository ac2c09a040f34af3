(* The cubicleos command-line tool: boot simulated CubicleOS systems,
   inspect deployments, serve HTTP traffic, and run database workloads
   from the shell. *)

open Cubicle
open Cmdliner

let protection_conv =
  let parse = function
    | "none" | "baseline" -> Ok Types.None_
    | "trampolines" -> Ok Types.Trampolines
    | "mpk" -> Ok Types.Mpk
    | "full" -> Ok Types.Full
    | s -> Error (`Msg (Printf.sprintf "unknown protection %S (none|trampolines|mpk|full)" s))
  in
  let print fmt p = Format.pp_print_string fmt (Types.protection_to_string p) in
  Arg.conv (parse, print)

let protection_arg =
  let doc = "Protection level: none, trampolines, mpk, or full." in
  Arg.(value & opt protection_conv Types.Full & info [ "p"; "protection" ] ~docv:"LEVEL" ~doc)

(* --- info ----------------------------------------------------------------- *)

let info_cmd =
  let run protection net =
    let extra = [ (Builder.component ~heap_pages:32 ~stack_pages:2 "APP", Types.Isolated) ] in
    let sys =
      if net then Libos.Boot.net_stack ~protection ~extra ()
      else Libos.Boot.fs_stack ~protection ~extra ()
    in
    let mon = sys.Libos.Boot.mon in
    Printf.printf "protection: %s\n" (Types.protection_to_string protection);
    Printf.printf "%-10s %-9s %-4s %s\n" "cubicle" "kind" "key" "exports";
    for cid = 0 to Monitor.ncubicles mon - 1 do
      Printf.printf "%-10s %-9s %-4d %s\n" (Monitor.cubicle_name mon cid)
        (Types.kind_to_string (Monitor.cubicle_kind mon cid))
        (Monitor.cubicle_key mon cid)
        (String.concat ", " (Monitor.exports_of mon cid))
    done
  in
  let net =
    Arg.(value & flag & info [ "net" ] ~doc:"Boot the network stack (NGINX deployment).")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Boot a system and print its cubicle inventory.")
    Term.(const run $ protection_arg $ net)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let run protection paths =
    let sys =
      Libos.Boot.net_stack ~protection
        ~extra:[ (Httpd.Server.component (), Types.Isolated) ]
        ()
    in
    Libos.Boot.populate sys ~as_app:"NGINX"
      [ ("/index.html", "<html>cubicleos</html>"); ("/data.bin", String.make 100_000 'd') ];
    let server = Httpd.Server.start sys in
    let siege = Httpd.Siege.make sys server in
    let paths = if paths = [] then [ "/index.html"; "/data.bin" ] else paths in
    List.iter
      (fun path ->
        let r = Httpd.Siege.fetch siege path in
        Printf.printf "GET %-14s -> %d  %8d bytes  %7.2f ms\n" path r.Httpd.Siege.status
          (String.length r.Httpd.Siege.body)
          r.Httpd.Siege.latency_ms)
      paths
  in
  let paths = Arg.(value & pos_all string [] & info [] ~docv:"PATH") in
  Cmd.v
    (Cmd.info "serve" ~doc:"Boot the web server and fetch paths through the simulated network.")
    Term.(const run $ protection_arg $ paths)

(* --- speedtest ----------------------------------------------------------------- *)

let speedtest_cmd =
  let run protection n =
    let app = Builder.component ~heap_pages:512 ~stack_pages:4 "APP" in
    let sys =
      Libos.Boot.fs_stack ~protection ~mem_bytes:(192 * 1024 * 1024)
        ~extra:[ (app, Types.Isolated) ]
        ()
    in
    let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP")) in
    let cost = Monitor.cost sys.Libos.Boot.mon in
    let results =
      Minidb.Speedtest.run_all os ~path:"/speed.db" ~n ~measure:(fun f ->
          let c0 = Hw.Cost.cycles cost in
          f ();
          Hw.Cost.cycles cost - c0)
    in
    Printf.printf "%-5s %-6s %12s  %s\n" "query" "group" "time(ms)" "description";
    List.iter
      (fun ((q : Minidb.Speedtest.query), c) ->
        Printf.printf "%-5d %-6s %12.2f  %s\n" q.id
          (match q.group with Minidb.Speedtest.Light -> "light" | Heavy -> "heavy")
          (Hw.Cost.to_ms c) q.name)
      results
  in
  let n =
    Arg.(value & opt int 100 & info [ "n"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")
  in
  Cmd.v
    (Cmd.info "speedtest" ~doc:"Run the speedtest1-style database workload.")
    Term.(const run $ protection_arg $ n)

(* --- sql --------------------------------------------------------------------- *)

let sql_cmd =
  let run protection script =
    let app = Builder.component ~heap_pages:256 ~stack_pages:4 "APP" in
    let sys =
      Libos.Boot.fs_stack ~protection ~mem_bytes:(128 * 1024 * 1024)
        ~extra:[ (app, Types.Isolated) ]
        ()
    in
    let ctx = Libos.Boot.app_ctx sys "APP" in
    Monitor.run_as sys.Libos.Boot.mon (Api.self ctx) (fun () ->
        let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make ctx) in
        let sql = Minidb.Sql.attach (Minidb.Db.open_db os ~path:"/cli.db") in
        List.iter
          (fun result ->
            match result with
            | Minidb.Sql.Done -> print_endline "ok"
            | Minidb.Sql.Affected n -> Printf.printf "%d row(s)\n" n
            | Minidb.Sql.Rows (headers, rows) ->
                print_endline (String.concat " | " headers);
                List.iter
                  (fun row ->
                    print_endline
                      (String.concat " | "
                         (List.map (Format.asprintf "%a" Minidb.Record.pp) row)))
                  rows)
          (Minidb.Sql.exec_script sql script))
  in
  let script =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCRIPT" ~doc:"Semicolon-separated SQL statements.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run a SQL script on the isolated database stack.")
    Term.(const run $ protection_arg $ script)

(* --- attack ----------------------------------------------------------------- *)

let attack_cmd =
  let run () =
    let app = Builder.component ~heap_pages:32 ~stack_pages:2 "APP" in
    let sys = Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] () in
    let mon = sys.Libos.Boot.mon in
    let app_ctx = Libos.Boot.app_ctx sys "APP" in
    let attempt name ~blocked_by f =
      match f () with
      | _ -> Printf.printf "!! %-50s NOT BLOCKED\n" name
      | exception Hw.Fault.Violation _ -> Printf.printf "ok %-50s (%s)\n" name blocked_by
      | exception Types.Denied _ -> Printf.printf "ok %-50s (%s)\n" name blocked_by
    in
    let secret = Api.malloc_page_aligned app_ctx 32 in
    Monitor.run_as mon (Api.self app_ctx) (fun () ->
        Api.write_string app_ctx secret "private key material here!!!!!!");
    let ramfs = Monitor.lookup_cubicle mon "RAMFS" in
    Monitor.register_exports mon ramfs
      [
        {
          Monitor.sym = "rogue_read";
          fn = (fun ctx a -> Api.read_u8 ctx a.(0));
          stack_bytes = 0;
        };
      ];
    attempt "cross-cubicle read of app secret" ~blocked_by:"MPK tags" (fun () ->
        Monitor.call mon ~caller:(Api.self app_ctx) (Monitor.import "rogue_read")
          [| secret |]);
    attempt "loading wrpkru-bearing binary" ~blocked_by:"loader scan" (fun () ->
        Loader.load mon
          {
            Loader.img_name = "EVIL";
            code = Hw.Instr.assemble [ Wrpkru; Ret ];
            rodata = Bytes.empty;
            data = Bytes.empty;
            signed = false;
          }
          ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[]);
    attempt "calling an unregistered symbol" ~blocked_by:"CFI" (fun () ->
        Monitor.call mon ~caller:(Api.self app_ctx) (Monitor.import "no_such_fn") [||]);
    attempt "windowing foreign memory" ~blocked_by:"ownership check" (fun () ->
        let wid = Api.window_init app_ctx ~klass:Mm.Page_meta.Heap in
        let vfs = Monitor.lookup_cubicle mon "VFSCORE" in
        let page =
          let rec find p =
            if Monitor.page_owner mon p = Some vfs then Hw.Addr.base_of_page p
            else find (p + 1)
          in
          find 0
        in
        Api.window_add app_ctx wid ~ptr:page ~size:16;
        0)
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Demonstrate blocked isolation attacks.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "cubicleos" ~version:"1.0.0"
       ~doc:"Simulated CubicleOS: an MPK-isolated library OS (ASPLOS'21 reproduction).")
    [ info_cmd; serve_cmd; speedtest_cmd; sql_cmd; attack_cmd ]

let () = exit (Cmd.eval main)
