(* End-to-end tests for the web server: full request path through
   NETDEV, LWIP, NGINX, VFSCORE, RAMFS under all protection levels. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let boot ?(protection = Types.Full) ?(zerocopy = false) files =
  let sys =
    Libos.Boot.net_stack ~protection ~extra:[ (Httpd.Server.component (), Types.Isolated) ] ()
  in
  Libos.Boot.populate sys ~as_app:"NGINX" files;
  let server = Httpd.Server.start ~zerocopy sys in
  let siege = Httpd.Siege.make sys server in
  (sys, server, siege)

let memcpy_cycles sys =
  Telemetry.Attrib.category_total
    (Hw.Cost.attrib (Monitor.cost sys.Libos.Boot.mon))
    Telemetry.Attrib.Memcpy

(* --- http parsing (pure) ------------------------------------------------------ *)

let test_parse_request () =
  (match Httpd.Http.parse_request "GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n" with
  | Some { Httpd.Http.meth; path; keep_alive } ->
      check_str "method" "GET" meth;
      check_str "path" "/index.html" path;
      check_bool "1.0 defaults to close" false keep_alive
  | None -> Alcotest.fail "should parse");
  (match
     Httpd.Http.parse_request "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
   with
  | Some { Httpd.Http.keep_alive; _ } -> check_bool "explicit keep-alive" true keep_alive
  | None -> Alcotest.fail "should parse");
  (match Httpd.Http.parse_request "HEAD /x HTTP/1.1\r\n\r\n" with
  | Some { Httpd.Http.meth; keep_alive; _ } ->
      check_str "head" "HEAD" meth;
      check_bool "1.1 defaults persistent" true keep_alive
  | None -> Alcotest.fail "should parse");
  check_bool "garbage" true (Httpd.Http.parse_request "NONSENSE\r\n\r\n" = None);
  check_bool "post rejected" true
    (Httpd.Http.parse_request "POST /x HTTP/1.0\r\n\r\n" = None);
  check_bool "relative path rejected" true
    (Httpd.Http.parse_request "GET x HTTP/1.0\r\n\r\n" = None)

let test_mime () =
  check_str "html" "text/html" (Httpd.Http.mime_type "/a/index.html");
  check_str "txt" "text/plain" (Httpd.Http.mime_type "/notes.txt");
  check_str "default" "application/octet-stream" (Httpd.Http.mime_type "/blob")

let test_response_header () =
  let h = Httpd.Http.response_header ~status:200 ~content_length:17 () in
  check_bool "status" true (String.length h > 0 && String.sub h 0 15 = "HTTP/1.0 200 OK");
  check_bool "content length" true
    (let rec mem i =
       i + 18 <= String.length h && (String.sub h i 18 = "Content-Length: 17" || mem (i + 1))
     in
     mem 0)

(* --- serving -------------------------------------------------------------------- *)

let test_serve_small_file () =
  let _, _, siege = boot [ ("/index.html", "<html>hi</html>") ] in
  let r = Httpd.Siege.fetch siege "/index.html" in
  check_int "200" 200 r.Httpd.Siege.status;
  check_str "body" "<html>hi</html>" r.Httpd.Siege.body

let test_serve_404 () =
  let _, _, siege = boot [ ("/a", "x") ] in
  let r = Httpd.Siege.fetch siege "/missing" in
  check_int "404" 404 r.Httpd.Siege.status;
  check_str "empty body" "" r.Httpd.Siege.body

let test_serve_large_file_multi_chunk () =
  let body = String.init 100_000 (fun i -> Char.chr (32 + (i mod 90))) in
  let _, _, siege = boot [ ("/big.bin", body) ] in
  let r = Httpd.Siege.fetch siege "/big.bin" in
  check_int "200" 200 r.Httpd.Siege.status;
  check_bool "body intact" true (r.Httpd.Siege.body = body)

let test_serve_many_requests () =
  let files = List.init 5 (fun i -> (Printf.sprintf "/f%d" i, String.make (100 * (i + 1)) 'x')) in
  let _, server, siege = boot files in
  List.iter
    (fun (path, contents) ->
      let r = Httpd.Siege.fetch siege path in
      check_bool ("body " ^ path) true (r.Httpd.Siege.body = contents))
    files;
  check_int "served count" 5 (Httpd.Server.requests_served server)

let test_serve_all_protection_levels () =
  List.iter
    (fun protection ->
      let _, _, siege = boot ~protection [ ("/p", "protected contents") ] in
      let r = Httpd.Siege.fetch siege "/p" in
      check_str
        (Printf.sprintf "body at %s" (Types.protection_to_string protection))
        "protected contents" r.Httpd.Siege.body)
    [ Types.None_; Types.Trampolines; Types.Mpk; Types.Full ]

let test_latency_grows_with_size () =
  let sizes = [ 1024; 65536; 262144 ] in
  let sys, server, siege =
    boot (List.map (fun s -> (Printf.sprintf "/s%d" s, String.make s 'd')) sizes)
  in
  ignore sys;
  ignore server;
  let results =
    Httpd.Siege.latency_for_sizes siege ~sizes ~repeats:1
      ~populate:(fun s -> Printf.sprintf "/s%d" s)
      ()
  in
  (match results with
  | [ (_, small, _); (_, mid, _); (_, big, _) ] ->
      check_bool "monotone" true (small <= mid && mid < big)
  | _ -> Alcotest.fail "expected 3 results");
  ()

let test_fig5_topology () =
  (* Serving traffic produces the Figure 5 edges: NGINX->LWIP,
     LWIP->NETDEV, NGINX->VFSCORE, VFSCORE->RAMFS, LWIP->ALLOC. *)
  let sys, _, siege = boot [ ("/t", String.make 8000 'y') ] in
  let stats = Monitor.stats sys.Libos.Boot.mon in
  let before = Stats.snapshot stats in
  ignore (Httpd.Siege.fetch siege "/t");
  let cid name = Builder.cid sys.Libos.Boot.built name in
  let edges = Stats.diff_edges stats ~since:before in
  let has a b = List.mem_assoc (cid a, cid b) edges in
  check_bool "nginx->lwip" true (has "NGINX" "LWIP");
  check_bool "lwip->netdev" true (has "LWIP" "NETDEV");
  check_bool "nginx->vfs" true (has "NGINX" "VFSCORE");
  check_bool "vfs->ramfs" true (has "VFSCORE" "RAMFS");
  check_bool "lwip->alloc" true (has "LWIP" "ALLOC")

let test_keep_alive_pipelined () =
  let _, server, siege =
    boot [ ("/a.html", "<a/>"); ("/b.txt", "bee"); ("/c.bin", String.make 9000 'c') ]
  in
  let results = Httpd.Siege.fetch_pipelined siege [ "/a.html"; "/b.txt"; "/c.bin" ] in
  (match results with
  | [ (200, a); (200, b); (200, c) ] ->
      check_str "first" "<a/>" a;
      check_str "second" "bee" b;
      check_int "third" 9000 (String.length c)
  | _ -> Alcotest.fail "expected three 200s");
  check_int "three served" 3 (Httpd.Server.requests_served server)

let test_head_request () =
  let _, _, siege = boot [ ("/doc.html", String.make 5000 'h') ] in
  let header = Httpd.Siege.fetch_head siege "/doc.html" in
  check_bool "200" true
    (String.length header >= 15 && String.sub header 0 15 = "HTTP/1.0 200 OK");
  check_bool "content-length advertised" true
    (let rec mem i =
       i + 20 <= String.length header
       && (String.sub header i 20 = "Content-Length: 5000" || mem (i + 1))
     in
     mem 0);
  check_bool "mime type" true
    (let rec mem i =
       i + 9 <= String.length header && (String.sub header i 9 = "text/html" || mem (i + 1))
     in
     mem 0)

(* --- zero-copy sendfile path -------------------------------------------------- *)

let test_zerocopy_matches_copy () =
  (* Same files, same requests, both serving modes: the responses must
     be byte-identical, and the zero-copy path must move at least 5x
     fewer memcpy cycles (body bytes never transit file_buf). *)
  let body = String.init 100_000 (fun i -> Char.chr (32 + (i * 7 mod 90))) in
  let files = [ ("/z.bin", body); ("/tiny.txt", "tiny") ] in
  let run zerocopy =
    let sys, _, siege = boot ~zerocopy files in
    let before = memcpy_cycles sys in
    let r = Httpd.Siege.fetch siege "/z.bin" in
    let t = Httpd.Siege.fetch siege "/tiny.txt" in
    (r, t, memcpy_cycles sys - before)
  in
  let rc, tc, copy_mc = run false in
  let rz, tz, zc_mc = run true in
  check_int "status" rc.Httpd.Siege.status rz.Httpd.Siege.status;
  check_bool "large body identical" true
    (rc.Httpd.Siege.body = body && rz.Httpd.Siege.body = body);
  check_str "tiny body identical" tc.Httpd.Siege.body tz.Httpd.Siege.body;
  check_bool "zero-copy memcpy at least 5x lower" true (zc_mc > 0 && copy_mc >= 5 * zc_mc)

let test_zerocopy_topology () =
  (* Grant-and-forward reroutes the body: RAMFS streams directly into
     LWIP (a call edge that never exists in copy mode), while the
    request path and header sends keep the Figure 5 edges. *)
  let sys, _, siege = boot ~zerocopy:true [ ("/t", String.make 8000 'y') ] in
  let stats = Monitor.stats sys.Libos.Boot.mon in
  let before = Stats.snapshot stats in
  let r = Httpd.Siege.fetch siege "/t" in
  check_int "200" 200 r.Httpd.Siege.status;
  let cid name = Builder.cid sys.Libos.Boot.built name in
  let edges = Stats.diff_edges stats ~since:before in
  let has a b = List.mem_assoc (cid a, cid b) edges in
  check_bool "nginx->vfs" true (has "NGINX" "VFSCORE");
  check_bool "vfs->ramfs" true (has "VFSCORE" "RAMFS");
  check_bool "ramfs->lwip (zero-copy stream)" true (has "RAMFS" "LWIP");
  check_bool "lwip->netdev" true (has "LWIP" "NETDEV")

let test_zerocopy_all_protections () =
  let body = String.make 70_000 'q' in
  List.iter
    (fun protection ->
      let _, _, siege = boot ~protection ~zerocopy:true [ ("/p", body) ] in
      let r = Httpd.Siege.fetch siege "/p" in
      check_bool
        (Printf.sprintf "body at %s" (Types.protection_to_string protection))
        true
        (r.Httpd.Siege.body = body))
    [ Types.None_; Types.Trampolines; Types.Mpk; Types.Full ]

let test_zerocopy_keep_alive_repeat () =
  (* Standing grants: re-serving the same file adds no new ranges, the
     chunks stay granted, and the bytes still arrive intact. *)
  let body = String.make 9000 'r' in
  let _, server, siege = boot ~zerocopy:true [ ("/r.bin", body) ] in
  let results = Httpd.Siege.fetch_pipelined siege [ "/r.bin"; "/r.bin"; "/r.bin" ] in
  (match results with
  | [ (200, a); (200, b); (200, c) ] ->
      check_bool "all three intact" true (a = body && b = body && c = body)
  | _ -> Alcotest.fail "expected three 200s");
  check_int "three served" 3 (Httpd.Server.requests_served server)

let test_full_isolation_overhead_exists () =
  (* CubicleOS must cost more cycles than the unprotected baseline for
     the same work — and not absurdly more (sanity bounds for Fig. 7). *)
  let fetch_cycles protection =
    let _, _, siege = boot ~protection [ ("/w", String.make 65536 'w') ] in
    (Httpd.Siege.fetch siege "/w").Httpd.Siege.cycles
  in
  let base = fetch_cycles Types.None_ in
  let full = fetch_cycles Types.Full in
  check_bool "full costs more" true (full > base);
  check_bool "under 10x" true (full < 10 * base)

(* --- multi-tenant serving sets --------------------------------------------- *)

let test_tenant_request_roundtrip () =
  let sys = Httpd.Tenant.boot ~virtualise:true () in
  List.iter (Httpd.Tenant.spawn sys) [ 1; 2; 3 ];
  List.iter
    (fun t ->
      check_str
        (Printf.sprintf "tenant %d" t)
        (Httpd.Tenant.expected ~tenant:t ~off:5 ~len:40)
        (Httpd.Tenant.request sys ~tenant:t ~off:5 ~len:40))
    [ 1; 2; 3 ];
  (* tenants are isolated components: 3 pairs + gateway + monitor *)
  check_int "cubicle count" 8 (Monitor.ncubicles (Httpd.Tenant.mon sys))

let test_tenant_lifecycle_recycles () =
  let sys = Httpd.Tenant.boot ~virtualise:true () in
  let mon = Httpd.Tenant.mon sys in
  List.iter (Httpd.Tenant.spawn sys) [ 1; 2; 3 ];
  ignore (Httpd.Tenant.request sys ~tenant:2 ~off:0 ~len:16);
  let pages = Monitor.free_page_count mon in
  let cubs = Monitor.ncubicles mon in
  (* teardown + respawn must reuse the dead pair's cids, virtual keys
     and page footprint exactly *)
  Httpd.Tenant.teardown sys 2;
  check_bool "pages released" true (Monitor.free_page_count mon > pages);
  Httpd.Tenant.spawn sys 2;
  check_int "cubicles recycled" cubs (Monitor.ncubicles mon);
  check_int "page footprint identical" pages (Monitor.free_page_count mon);
  check_bool "cid pool not grown" true (List.length (Monitor.live_cids mon) = cubs);
  (* the respawned tenant and an untouched neighbour both serve *)
  List.iter
    (fun t ->
      check_str
        (Printf.sprintf "tenant %d after churn" t)
        (Httpd.Tenant.expected ~tenant:t ~off:9 ~len:25)
        (Httpd.Tenant.request sys ~tenant:t ~off:9 ~len:25))
    [ 2; 3 ];
  check_int "live tenants" 3 (List.length (Httpd.Tenant.live sys))

let test_tenant_teardown_errors () =
  let sys = Httpd.Tenant.boot ~virtualise:true () in
  Httpd.Tenant.spawn sys 1;
  check_bool "double spawn rejected" true
    (match Httpd.Tenant.spawn sys 1 with
    | _ -> false
    | exception Types.Error _ -> true);
  Httpd.Tenant.teardown sys 1;
  check_bool "double teardown rejected" true
    (match Httpd.Tenant.teardown sys 1 with
    | _ -> false
    | exception Types.Error _ -> true);
  check_bool "request to dead tenant rejected" true
    (match Httpd.Tenant.request sys ~tenant:1 ~off:0 ~len:8 with
    | _ -> false
    | exception Types.Error _ -> true);
  let rejected f = match f () with _ -> false | exception Types.Error _ -> true in
  check_bool "negative id rejected" true
    (rejected (fun () -> Httpd.Tenant.spawn sys (-1)));
  check_bool "request past every id rejected" true
    (rejected (fun () -> Httpd.Tenant.request sys ~tenant:1000 ~off:0 ~len:8));
  check_bool "teardown past every id rejected" true
    (rejected (fun () -> Httpd.Tenant.teardown sys 1000));
  Httpd.Tenant.spawn sys 1;
  check_bool "negative offset rejected" true
    (rejected (fun () -> Httpd.Tenant.request sys ~tenant:1 ~off:(-3) ~len:8));
  Httpd.Tenant.teardown sys 1;
  (* ids need not be dense: the table grows to fit *)
  Httpd.Tenant.spawn sys 40;
  Alcotest.(check (list int)) "live" [ 40 ] (Httpd.Tenant.live sys);
  Alcotest.(check string) "tenant 40 serves"
    (Httpd.Tenant.expected ~tenant:40 ~off:3 ~len:20)
    (Httpd.Tenant.request sys ~tenant:40 ~off:3 ~len:20)

let test_tenant_pressure_past_16_keys () =
  (* 12 tenants = 25 isolated cubicles over 14 physical tags: every
     round-robin sweep evicts, yet every response stays byte-exact *)
  let sys = Httpd.Tenant.boot ~virtualise:true () in
  let mon = Httpd.Tenant.mon sys in
  List.iter (Httpd.Tenant.spawn sys) (List.init 12 (fun i -> i + 1));
  for round = 0 to 1 do
    for t = 1 to 12 do
      let off = (t * 3) + round and len = 32 + t in
      check_str
        (Printf.sprintf "tenant %d round %d" t round)
        (Httpd.Tenant.expected ~tenant:t ~off ~len)
        (Httpd.Tenant.request sys ~tenant:t ~off ~len)
    done
  done;
  check_bool "evictions occurred" true (Monitor.tag_evictions mon > 0)

(* The guard table is keyed per cubicle: a teardown drops the dead
   pair's entries and nobody else's, and a respawn into the recycled
   cids rebuilds exactly the table churn started from. *)
let test_tenant_guards_follow_teardown () =
  let tenants = 128 in
  let all = List.init tenants (fun i -> i + 1) in
  let sys = Httpd.Tenant.boot ~virtualise:true ~mem_bytes:(64 * 1024 * 1024) () in
  let mon = Httpd.Tenant.mon sys in
  let tr = (Httpd.Tenant.built sys).Builder.trampolines in
  let guards_of cid = List.filter (Trampoline.has_guard tr cid) (Trampoline.syms tr) in
  let table () = List.map (fun cid -> (cid, guards_of cid)) (Monitor.live_cids mon) in
  let count tbl = List.fold_left (fun acc (_, syms) -> acc + List.length syms) 0 tbl in
  List.iter (Httpd.Tenant.spawn sys) all;
  (* guard entries come only from declared call edges: WEB<i> declares
     its one call to FS<i>, FS<i> declares none, and the gateway
     declares its call to WEB<i> at tenant i's first spawn *)
  let web_fs t =
    ( Monitor.lookup_cubicle mon (Httpd.Tenant.web_name t),
      Monitor.lookup_cubicle mon (Httpd.Tenant.fs_name t) )
  in
  let gw = Monitor.lookup_cubicle mon "GW" in
  let per_tenant () =
    List.iter
      (fun t ->
        let web, fs = web_fs t in
        Alcotest.(check (list string))
          (Printf.sprintf "WEB%d guards its declared call" t)
          [ Printf.sprintf "t%d_read" t ] (guards_of web);
        check_int (Printf.sprintf "FS%d calls nothing" t) 0 (Trampoline.guard_entries tr fs))
      all;
    Alcotest.(check (list string))
      "the gateway holds one entry per tenant id"
      (List.sort compare (List.map (Printf.sprintf "t%d_get") all))
      (guards_of gw)
  in
  per_tenant ();
  check_int "guard entries after the initial spawns" (2 * tenants) (count (table ()));
  (* one teardown + respawn per tenant changes none of it *)
  List.iter
    (fun t ->
      Httpd.Tenant.teardown sys t;
      Httpd.Tenant.spawn sys t)
    all;
  per_tenant ();
  let before = table () in
  check_int "guard entries at 128 tenants" 256 (count before);
  let churned = [ 37; 1; 128; 64 ] in
  List.iter
    (fun t ->
      let pair = [ Httpd.Tenant.web_name t; Httpd.Tenant.fs_name t ] in
      let dead = List.map (Monitor.lookup_cubicle mon) pair in
      let others = List.filter (fun (cid, _) -> not (List.mem cid dead)) (table ()) in
      Httpd.Tenant.teardown sys t;
      List.iter
        (fun cid ->
          check_int (Printf.sprintf "no guard left for dead cid %d" cid) 0
            (List.length (guards_of cid)))
        dead;
      check_bool (Printf.sprintf "tenant %d: other cids' guards unchanged" t) true
        (table () = others);
      (* the gateway keeps its declared call and its entry; the symbol
         keeps its thunk, so the call is not an unresolved one *)
      check_bool (Printf.sprintf "tenant %d down: the gateway keeps its entry" t) true
        (Trampoline.has_guard tr gw (Printf.sprintf "t%d_get" t));
      Alcotest.(check (list string))
        (Printf.sprintf "tenant %d down: no call-graph finding" t)
        []
        (List.map
           (fun (f : Analysis.Report.finding) -> f.key)
           (Analysis.Callgraph.check (Analysis.Ir.of_built (Httpd.Tenant.built sys))));
      Httpd.Tenant.spawn sys t;
      let reborn = List.map (Monitor.lookup_cubicle mon) pair in
      Alcotest.(check (list int))
        "respawn recycles the cids" (List.sort compare dead) (List.sort compare reborn))
    churned;
  check_int "guard entries after churn" (count before) (count (table ()));
  check_bool "guard table rebuilt exactly" true (table () = before);
  check_str "respawned tenant serves"
    (Httpd.Tenant.expected ~tenant:37 ~off:3 ~len:20)
    (Httpd.Tenant.request sys ~tenant:37 ~off:3 ~len:20)

(* A respawn loads the very components the first spawn built (so their
   code images too), and its answers stay byte-identical. *)
let test_tenant_respawn_reuses_components () =
  let sys = Httpd.Tenant.boot ~virtualise:true () in
  check_int "nothing built before the first spawn" 0
    (List.length (Httpd.Tenant.components sys 2));
  List.iter (Httpd.Tenant.spawn sys) [ 1; 2 ];
  let comps = Httpd.Tenant.components sys 2 in
  check_int "FS and WEB" 2 (List.length comps);
  for round = 1 to 3 do
    Httpd.Tenant.teardown sys 2;
    Httpd.Tenant.spawn sys 2;
    let again = Httpd.Tenant.components sys 2 in
    check_bool "same components" true (List.for_all2 ( == ) comps again);
    List.iter
      (fun (off, len) ->
        check_str
          (Printf.sprintf "round %d: off %d len %d" round off len)
          (Httpd.Tenant.expected ~tenant:2 ~off ~len)
          (Httpd.Tenant.request sys ~tenant:2 ~off ~len))
      [ (0, 64); (round * 50, 512 - round); (93, 1); (7, 4032) ]
  done

(* Each guard page holds exactly what writing its entries one at a
   time leaves: every entry assembled on its own (wrpkru, a jump to its
   thunk, halt padding) and zero between and after them, on a page the
   entry's cubicle owns. A respawned WEB guards its one call, and a
   respawned FS, which calls nothing, owns no guard page at all. *)
let test_tenant_guard_pages_match_entries () =
  let sys = Httpd.Tenant.boot ~virtualise:true ~mem_bytes:(64 * 1024 * 1024) () in
  List.iter (Httpd.Tenant.spawn sys) (List.init 129 (fun i -> i + 1));
  Httpd.Tenant.teardown sys 2;
  Httpd.Tenant.spawn sys 2;
  let mon = Httpd.Tenant.mon sys in
  let tr = (Httpd.Tenant.built sys).Builder.trampolines in
  let mem = Hw.Cpu.mem (Monitor.cpu mon) in
  let page = Hw.Addr.page_size in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun cid ->
      List.iter
        (fun sym ->
          if Trampoline.has_guard tr cid sym then begin
            let g = Trampoline.guard_addr tr cid sym in
            check_bool
              (Printf.sprintf "%s's entry for %s on its own page" (Monitor.cubicle_name mon cid) sym)
              true
              (Monitor.page_owner mon (Hw.Addr.page_of g) = Some cid);
            let body =
              Hw.Instr.assemble [ Wrpkru; Jmp (Trampoline.thunk_addr tr sym - g); Halt ]
            in
            let entry = Bytes.make 16 '\xF4' in
            Bytes.blit body 0 entry 0 (Bytes.length body);
            Bytes.iteri (fun k c -> Hashtbl.replace expected (g + k) c) entry
          end)
        (Trampoline.syms tr))
    (Monitor.live_cids mon);
  let fs2 = Monitor.lookup_cubicle mon (Httpd.Tenant.fs_name 2) in
  let web2 = Monitor.lookup_cubicle mon (Httpd.Tenant.web_name 2) in
  check_int "the respawned WEB guards one sym" 1 (Trampoline.guard_entries tr web2);
  check_int "the respawned FS guards none" 0 (Trampoline.guard_entries tr fs2);
  (* the same FS image, heap and stack loaded with no guards at all *)
  let bare = Monitor.create ~protection:Types.Full () in
  let l =
    Loader.load bare
      (Loader.image_of_ops ~name:"FS" ~data_bytes:256 ~ops:256 ())
      ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1 ~exports:[]
  in
  check_int "the respawned FS owns no guard page"
    (List.length (Monitor.owned_pages bare l.Loader.cid))
    (List.length (Monitor.owned_pages mon fs2));
  let pages =
    List.sort_uniq compare
      (Hashtbl.fold (fun a _ acc -> Hw.Addr.page_of a :: acc) expected [])
  in
  List.iter
    (fun p ->
      let base = Hw.Addr.base_of_page p in
      let got = Hw.Phys_mem.read_bytes mem base page in
      let want =
        Bytes.init page (fun k ->
            Option.value (Hashtbl.find_opt expected (base + k)) ~default:'\000')
      in
      check_str
        (Printf.sprintf "guard page %d" p)
        (Bytes.to_string want) (Bytes.to_string got))
    pages

(* --- siege end to end (property) ------------------------------------------------ *)

(* The sizes where a response's framing changes: empty, one byte,
   around one segment, around one server chunk, and the largest
   benchmark file. *)
let siege_edge_sizes =
  let mss = Libos.Sysdefs.mss and chunk = Httpd.Server.chunk_size in
  [ 0; 1; mss - 1; mss; mss + 1; chunk - 1; chunk + 1; 256 * 1024 ]

(* [size] random bytes from [seed], with runs of the header terminator
   "\r\n\r\n" planted throughout: a reader that looked for it in a
   body would cut the body short. *)
let siege_body ~seed size =
  let rng = Random.State.make [| seed |] in
  let b = Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
  if size > 0 then
    for _ = 0 to size / 4096 do
      let runs = 1 + Random.State.int rng 3 in
      let run = String.concat "" (List.init runs (fun _ -> "\r\n\r\n")) in
      let at = Random.State.int rng size in
      Bytes.blit_string run 0 b at (min (String.length run) (size - at))
    done;
  Bytes.unsafe_to_string b

let prop_siege_end_to_end =
  let size = QCheck.Gen.(oneof [ oneofl siege_edge_sizes; int_bound (300 * 1024) ]) in
  let gen = QCheck.Gen.(pair (list_repeat 3 size) int) in
  let print (sizes, seed) =
    Printf.sprintf "sizes [%s], body seed %d"
      (String.concat "; " (List.map string_of_int sizes))
      seed
  in
  QCheck.Test.make ~count:25
    ~name:"siege: fetch and pipelined fetch return every file byte for byte"
    (QCheck.make ~print gen)
    (fun (sizes, seed) ->
      let files =
        List.mapi
          (fun i n -> (Printf.sprintf "/p%d.bin" i, siege_body ~seed:(seed + i) n))
          sizes
      in
      let _, _, siege = boot files in
      List.for_all
        (fun (path, body) ->
          let r = Httpd.Siege.fetch siege path in
          r.Httpd.Siege.status = 200 && r.Httpd.Siege.body = body)
        files
      && Httpd.Siege.fetch_pipelined siege (List.map fst files)
         = List.map (fun (_, body) -> (200, body)) files)

let () =
  Alcotest.run "httpd"
    [
      ( "http",
        [
          Alcotest.test_case "parse request" `Quick test_parse_request;
          Alcotest.test_case "mime types" `Quick test_mime;
          Alcotest.test_case "response header" `Quick test_response_header;
        ] );
      ( "serving",
        [
          Alcotest.test_case "small file" `Quick test_serve_small_file;
          Alcotest.test_case "404" `Quick test_serve_404;
          Alcotest.test_case "large file" `Quick test_serve_large_file_multi_chunk;
          Alcotest.test_case "many requests" `Quick test_serve_many_requests;
          Alcotest.test_case "all protections" `Quick test_serve_all_protection_levels;
          Alcotest.test_case "latency vs size" `Slow test_latency_grows_with_size;
          Alcotest.test_case "keep-alive pipeline" `Quick test_keep_alive_pipelined;
          Alcotest.test_case "head request" `Quick test_head_request;
          Alcotest.test_case "fig5 topology" `Quick test_fig5_topology;
          Alcotest.test_case "isolation overhead" `Quick test_full_isolation_overhead_exists;
        ] );
      ( "zero-copy",
        [
          Alcotest.test_case "matches copy mode" `Quick test_zerocopy_matches_copy;
          Alcotest.test_case "grant-and-forward topology" `Quick test_zerocopy_topology;
          Alcotest.test_case "all protections" `Quick test_zerocopy_all_protections;
          Alcotest.test_case "keep-alive repeat" `Quick test_zerocopy_keep_alive_repeat;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "request roundtrip" `Quick test_tenant_request_roundtrip;
          Alcotest.test_case "lifecycle recycles" `Quick test_tenant_lifecycle_recycles;
          Alcotest.test_case "spawn/teardown errors" `Quick test_tenant_teardown_errors;
          Alcotest.test_case "pressure past 16 keys" `Quick test_tenant_pressure_past_16_keys;
          Alcotest.test_case "respawn reuses components" `Quick
            test_tenant_respawn_reuses_components;
          Alcotest.test_case "guard pages = per-entry writes" `Quick
            test_tenant_guard_pages_match_entries;
          Alcotest.test_case "guards follow teardown" `Quick
            test_tenant_guards_follow_teardown;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_siege_end_to_end ]);
    ]
