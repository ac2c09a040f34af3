(* CubiCheck: the static isolation analyzer and the trace-driven
   dynamic plane. Unit tests per pass, the seeded broken examples, the
   byte-exact window grant semantics, and qcheck properties (a random
   well-formed program analyses clean; each injected violation yields
   exactly one finding). *)

open Cubicle
open Analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fundecl = Iface.fundecl

(* --- little program builders ------------------------------------------ *)

let server ?(derefs = [ 0 ]) ?(writes = []) () =
  ("SERVER", Types.Isolated, [ "srv" ], [ fundecl ~derefs ~writes "srv" [] ])

let client body = ("CLIENT", Types.Isolated, [ "main" ], [ fundecl "main" body ])

let clean_body ?(bytes = 128) () =
  [
    Iface.Alloc { buf = "req"; bytes };
    Iface.Window_add { win = "w"; buf = Iface.Local "req"; bytes; standing = false; rw = false };
    Iface.Window_open { win = "w"; peer = "SERVER" };
    Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", bytes) ] };
    Iface.Window_close { win = "w"; peer = "SERVER" };
    Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
  ]

let keys fs = List.map (fun f -> f.Report.key) fs

(* --- callgraph pass ---------------------------------------------------- *)

let test_callgraph_clean () =
  let p = Ir.make [ client (clean_body ()); server () ] in
  check_int "no findings" 0 (List.length (Static.run p))

let test_callgraph_missing_thunk () =
  let p = Ir.make ~missing_thunks:[ "srv" ] [ client (clean_body ()); server () ] in
  let fs = Callgraph.check p in
  check_int "one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_bool "critical" true (f.Report.severity = Report.Critical);
  check_bool "key" true (f.Report.key = "trampoline:no-thunk:CLIENT.main:srv")

let test_callgraph_missing_guard () =
  let p =
    Ir.make ~missing_guards:[ ("CLIENT", "srv") ] [ client (clean_body ()); server () ]
  in
  let fs = Callgraph.check p in
  check_int "one finding" 1 (List.length fs);
  check_bool "high" true ((List.hd fs).Report.severity = Report.High)

let test_callgraph_direct_call () =
  let p =
    Ir.make [ client [ Iface.Direct_call { sym = "srv" } ]; server () ]
  in
  let fs = Callgraph.check p in
  check_int "one finding" 1 (List.length fs);
  check_bool "critical" true ((List.hd fs).Report.severity = Report.Critical)

let test_callgraph_unresolved () =
  let p = Ir.make [ client [ Iface.Call { sym = "ghost"; ptr_args = [] } ] ] in
  let fs = Callgraph.check p in
  check_int "one finding" 1 (List.length fs);
  check_bool "key" true ((List.hd fs).Report.key = "trampoline:unresolved:CLIENT.main:ghost")

let test_callgraph_edges () =
  let p = Ir.make [ client (clean_body ()); server () ] in
  match Callgraph.edges p with
  | [ e ] ->
      check_bool "edge" true
        (e.Callgraph.caller = "CLIENT" && e.Callgraph.callee = "SERVER"
       && e.Callgraph.sym = "srv")
  | es -> Alcotest.failf "expected 1 edge, got %d" (List.length es)

(* --- coverage pass ------------------------------------------------------ *)

let test_coverage_no_grant () =
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", 128) ] };
    ]
  in
  let fs = Windows.check (Ir.make [ client body; server () ]) in
  check_int "one finding" 1 (List.length fs);
  check_bool "key" true
    ((List.hd fs).Report.key = "coverage:no-grant:CLIENT.main:srv:0:SERVER")

let test_coverage_not_open () =
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = false };
      Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", 128) ] };
      Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
    ]
  in
  let fs = Windows.check (Ir.make [ client body; server () ]) in
  check_int "one finding" 1 (List.length fs);
  check_bool "key" true
    ((List.hd fs).Report.key = "coverage:not-open:CLIENT.main:srv:0:SERVER")

let test_coverage_partial () =
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 64; standing = false; rw = false };
      Iface.Window_open { win = "w"; peer = "SERVER" };
      Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", 128) ] };
      Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
    ]
  in
  let fs = Windows.check (Ir.make [ client body; server () ]) in
  check_int "one finding" 1 (List.length fs);
  check_bool "key" true
    ((List.hd fs).Report.key = "coverage:partial:CLIENT.main:srv:0:SERVER")

let test_coverage_branch_intersection () =
  (* the grant happens on only one arm: a must-analysis flags the call
     after the join *)
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Branch
        [
          [
            Iface.Window_add
              { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = false };
            Iface.Window_open { win = "w"; peer = "SERVER" };
          ];
          [];
        ];
      Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", 128) ] };
    ]
  in
  let fs = Windows.check (Ir.make [ client body; server () ]) in
  check_int "flagged after join" 1 (List.length fs)

let test_coverage_init_seeds_exports () =
  (* a standing grant made in __init covers calls in every export *)
  let iface =
    [
      fundecl "__init"
        [
          Iface.Alloc { buf = "staging"; bytes = 4096 };
          Iface.Window_add
            { win = "w"; buf = Iface.Local "staging"; bytes = 4096; standing = true; rw = false };
          Iface.Window_open { win = "w"; peer = "SERVER" };
        ];
      fundecl "main"
        [ Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "staging", 4096) ] } ];
    ]
  in
  let p = Ir.make [ ("CLIENT", Types.Isolated, [ "main" ], iface); server () ] in
  check_int "covered from init" 0 (List.length (Static.run p))

let test_coverage_transitive_accessor () =
  (* CLIENT -> PROXY (forwards arg 0) -> SERVER (derefs): the grant must
     be open for SERVER, the transitive accessor, not just PROXY *)
  let proxy =
    ( "PROXY",
      Types.Isolated,
      [ "fwd" ],
      [
        fundecl "fwd" [ Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Param 0, 0) ] } ];
      ] )
  in
  let body_open_for peer =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = false };
      Iface.Window_open { win = "w"; peer };
      Iface.Call { sym = "fwd"; ptr_args = [ (0, Iface.Local "req", 128) ] };
      Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
    ]
  in
  let fs_proxy_only =
    Windows.check (Ir.make [ client (body_open_for "PROXY"); proxy; server () ])
  in
  check_bool "proxy-only grant flagged" true
    (List.mem "coverage:not-open:CLIENT.main:fwd:0:SERVER" (keys fs_proxy_only));
  let fs_server =
    Windows.check (Ir.make [ client (body_open_for "SERVER"); proxy; server () ])
  in
  check_bool "server grant has no SERVER finding" false
    (List.mem "coverage:not-open:CLIENT.main:fwd:0:SERVER" (keys fs_server))

let test_coverage_ro_write () =
  (* the callee writes through arg 0, but the covering grant is R-only:
     the write never faults at runtime (read-first retag), so the
     static pass must flag it Critical *)
  let fs =
    Windows.check (Ir.make [ client (clean_body ()); server ~writes:[ 0 ] () ])
  in
  check_int "one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_bool "critical" true (f.Report.severity = Report.Critical);
  check_bool "key" true (f.Report.key = "coverage:ro-write:CLIENT.main:srv:0:SERVER")

let test_coverage_rw_grant_allows_write () =
  (* same program with an RW grant: no finding at all *)
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = true };
      Iface.Window_open { win = "w"; peer = "SERVER" };
      Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", 128) ] };
      Iface.Window_close { win = "w"; peer = "SERVER" };
      Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
    ]
  in
  check_int "no findings" 0
    (List.length (Windows.check (Ir.make [ client body; server ~writes:[ 0 ] () ])))

let test_overprivilege_lint () =
  (* an RW grant nobody ever writes through: Medium least-privilege
     lint — it should have been granted R *)
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = true };
      Iface.Window_open { win = "w"; peer = "SERVER" };
      Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", 128) ] };
      Iface.Window_close { win = "w"; peer = "SERVER" };
      Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
    ]
  in
  let fs = Windows.check (Ir.make [ client body; server () ]) in
  check_int "one finding" 1 (List.length fs);
  let f = List.hd fs in
  check_bool "medium" true (f.Report.severity = Report.Medium);
  check_bool "key" true (f.Report.key = "overpriv:CLIENT:w/req")

let test_coverage_shared_callee_exempt () =
  (* calls into shared code run with the caller's privileges: no window
     needed for the caller's own buffer *)
  let libc =
    ("LIBC", Types.Shared, [ "memcpy" ], [ fundecl ~derefs:[ 0; 1 ] "memcpy" [] ])
  in
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Call { sym = "memcpy"; ptr_args = [ (0, Iface.Local "req", 128) ] };
    ]
  in
  check_int "no findings" 0 (List.length (Static.run (Ir.make [ client body; libc ])))

(* --- leak pass ---------------------------------------------------------- *)

let test_leak_flagged () =
  let body =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = true };
    ]
  in
  let fs = Leaks.check (Ir.make [ client body ]) in
  check_int "one finding" 1 (List.length fs);
  check_bool "high" true ((List.hd fs).Report.severity = Report.High);
  check_bool "key" true ((List.hd fs).Report.key = "leak:CLIENT.main:w/req")

let test_leak_destroy_clean () =
  let body =
    [
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = true };
      Iface.Window_destroy { win = "w" };
    ]
  in
  check_int "no findings" 0 (List.length (Leaks.check (Ir.make [ client body ])))

let test_leak_standing_exempt () =
  let body =
    [
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = true; rw = true };
    ]
  in
  check_int "no findings" 0 (List.length (Leaks.check (Ir.make [ client body ])))

let test_leak_partial_on_branch () =
  let body =
    [
      Iface.Window_add
        { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = true };
      Iface.Branch [ [ Iface.Window_remove { win = "w"; buf = Iface.Local "req" } ]; [] ];
    ]
  in
  let fs = Leaks.check (Ir.make [ client body ]) in
  check_int "one finding" 1 (List.length fs);
  check_bool "medium" true ((List.hd fs).Report.severity = Report.Medium)

let test_leak_ro_demoted () =
  (* a leaked read-only grant is disclosure, not corruption: one
     severity below the RW leak *)
  let body rw =
    [
      Iface.Alloc { buf = "req"; bytes = 128 };
      Iface.Window_add { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw };
    ]
  in
  let sev rw =
    match Leaks.check (Ir.make [ client (body rw) ]) with
    | [ f ] -> f.Report.severity
    | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)
  in
  check_bool "RW leak high" true (sev true = Report.High);
  check_bool "R leak medium" true (sev false = Report.Medium)

(* --- window grant semantics (byte-exact coverage) ----------------------- *)

let test_window_covers () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:4 ~index:(Window.create_index 64) in
  let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
  Window.add_range tbl w ~ptr:0x1000 ~size:16;
  check_bool "exact" true (Window.covers w ~ptr:0x1000 ~size:16);
  check_bool "prefix" true (Window.covers w ~ptr:0x1000 ~size:10);
  check_bool "partial (regression)" false (Window.covers w ~ptr:0x1000 ~size:32);
  check_int "covered prefix" 16 (Window.covered_prefix w ~ptr:0x1000 ~size:32);
  (* adjacent ranges stitch *)
  Window.add_range tbl w ~ptr:0x1010 ~size:16;
  check_bool "stitched" true (Window.covers w ~ptr:0x1000 ~size:32);
  (* a hole breaks coverage *)
  Window.add_range tbl w ~ptr:0x1030 ~size:16;
  check_bool "hole" false (Window.covers w ~ptr:0x1000 ~size:64);
  check_int "stops at hole" 32 (Window.covered_prefix w ~ptr:0x1000 ~size:64);
  check_bool "zero size" false (Window.covers w ~ptr:0x1000 ~size:0);
  (* permissions: RW grants satisfy Write spans; a downgrade (or a
     born-R grant) stops Write coverage exactly where RW coverage ends *)
  check_bool "rw covers write" true (Window.covers ~access:Window.Write w ~ptr:0x1000 ~size:32);
  Window.downgrade_range w ~ptr:0x1010;
  check_bool "read still stitched" true (Window.covers ~access:Window.Read w ~ptr:0x1000 ~size:32);
  check_bool "write broken by downgrade" false
    (Window.covers ~access:Window.Write w ~ptr:0x1000 ~size:32);
  check_int "write prefix stops at R" 16
    (Window.covered_prefix ~access:Window.Write w ~ptr:0x1000 ~size:32);
  Window.add_range ~perm:Window.R tbl w ~ptr:0x1050 ~size:16;
  check_bool "born-R readable" true (Window.covers ~access:Window.Read w ~ptr:0x1050 ~size:16);
  check_bool "born-R not writable" false
    (Window.covers ~access:Window.Write w ~ptr:0x1050 ~size:16)

let test_monitor_window_grants () =
  let mon = Monitor.create ~protection:Types.Full () in
  let a =
    Monitor.create_cubicle mon ~name:"A" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
  in
  let b =
    Monitor.create_cubicle mon ~name:"B" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  let ctx = Monitor.ctx_for mon a in
  let buf = Monitor.run_as mon a (fun () -> Api.malloc ctx 64) in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:32;
  (* permission: granted but not open *)
  check_bool "not open" false (Monitor.window_grants mon a ~peer:b ~ptr:buf ~size:32);
  Api.window_open ctx wid b;
  check_bool "open + covered" true (Monitor.window_grants mon a ~peer:b ~ptr:buf ~size:32);
  (* size: grant smaller than the access (regression for partial
     coverage) *)
  check_bool "partial" false (Monitor.window_grants mon a ~peer:b ~ptr:buf ~size:64);
  Api.window_close ctx wid b;
  check_bool "closed" false (Monitor.window_grants mon a ~peer:b ~ptr:buf ~size:32)

let test_monitor_ro_write_rejected () =
  (* a DIRECT first-touch write through an R-only grant is the fault
     path's job: the window is found, the permission says no. Only the
     read-first retag makes later writes silent (next test). *)
  let mon = Monitor.create ~protection:Types.Full () in
  let a =
    Monitor.create_cubicle mon ~name:"A" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
  in
  let b =
    Monitor.create_cubicle mon ~name:"B" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  let ctx = Monitor.ctx_for mon a in
  let buf = Monitor.run_as mon a (fun () -> Api.malloc_page_aligned ctx Hw.Addr.page_size) in
  Monitor.run_as mon a (fun () ->
      let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
      Api.window_add ctx ~perm:Window.R wid ~ptr:buf ~size:Hw.Addr.page_size;
      Api.window_open ctx wid b);
  check_bool "read granted" true
    (Monitor.window_grants ~access:Window.Read mon a ~peer:b ~ptr:buf ~size:16);
  check_bool "write not granted" false
    (Monitor.window_grants ~access:Window.Write mon a ~peer:b ~ptr:buf ~size:16);
  let bctx = Monitor.ctx_for mon b in
  check_bool "first-touch write faults" true
    (match Monitor.run_as mon b (fun () -> Api.write_u8 bctx buf 0x99) with
    | () -> false
    | exception Hw.Fault.Violation _ -> true);
  (* ...but after a READ retags the page to B's key, the same write
     sails through: MPK grants full RW per key. That silent hole is
     what the online race sink exists for. *)
  ignore (Monitor.run_as mon b (fun () -> Api.read_u8 bctx buf));
  Monitor.run_as mon b (fun () -> Api.write_u8 bctx buf 0x99);
  check_int "silent write landed" 0x99
    (Monitor.run_as mon a (fun () -> Api.read_u8 ctx buf))

(* --- dynamic plane ------------------------------------------------------ *)

let test_replay_crossing_suppresses_race () =
  (* same two writes as the seeded race, but with a trampoline crossing
     between them: ordered, no race *)
  let det = Races.create ~name_of:(Printf.sprintf "C%d") in
  Races.access det ~cid:2 ~owner:1 ~page:10 ~access:Telemetry.Event.Write ~covered:true;
  Races.crossing det;
  Races.access det ~cid:3 ~owner:1 ~page:10 ~access:Telemetry.Event.Write ~covered:true;
  check_int "no findings" 0 (List.length (Races.findings det))

let test_replay_race_detected () =
  let det = Races.create ~name_of:(Printf.sprintf "C%d") in
  Races.access det ~cid:2 ~owner:1 ~page:10 ~access:Telemetry.Event.Write ~covered:true;
  Races.access det ~cid:3 ~owner:1 ~page:10 ~access:Telemetry.Event.Write ~covered:true;
  let fs = Races.findings det in
  check_int "one finding" 1 (List.length fs);
  check_bool "race" true ((List.hd fs).Report.pass = "race")

let test_replay_mirror_tracks_acl () =
  let t = Replay.create ~name_of:(Printf.sprintf "C%d") in
  let page = 16 in
  let ptr = page * Hw.Addr.page_size in
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Init; wid = 0; peer = -1; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Add; wid = 0; peer = -1; ptr; size = 64; rw = true });
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Open; wid = 0; peer = 2; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window_access { cid = 2; owner = 1; page; access = Telemetry.Event.Write });
  check_int "covered access ok" 0 (List.length (Replay.findings t));
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Close; wid = 0; peer = 2; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window_access { cid = 2; owner = 1; page; access = Telemetry.Event.Write });
  let fs = Replay.findings t in
  check_int "one finding" 1 (List.length fs);
  check_bool "use-after-close" true ((List.hd fs).Report.pass = "use-after-close");
  check_bool "critical" true ((List.hd fs).Report.severity = Report.Critical)

let test_replay_write_through_ro () =
  (* R-only grant: reads judge clean, a write is flagged even though
     the runtime never faulted *)
  let t = Replay.create ~name_of:(Printf.sprintf "C%d") in
  let page = 16 in
  let ptr = page * Hw.Addr.page_size in
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Init; wid = 0; peer = -1; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Add; wid = 0; peer = -1; ptr; size = 64; rw = false });
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Open; wid = 0; peer = 2; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window_access { cid = 2; owner = 1; page; access = Telemetry.Event.Read });
  check_int "read ok" 0 (List.length (Replay.findings t));
  Replay.feed t (Telemetry.Event.Window_access { cid = 2; owner = 1; page; access = Telemetry.Event.Write });
  let fs = Replay.findings t in
  check_int "one finding" 1 (List.length fs);
  check_bool "write-through-ro" true ((List.hd fs).Report.pass = "write-through-ro");
  check_bool "critical" true ((List.hd fs).Report.severity = Report.Critical)

let test_replay_downgrade_tracked () =
  (* an RW grant downgraded mid-trace: writes before the downgrade are
     legal, writes after are flagged *)
  let t = Replay.create ~name_of:(Printf.sprintf "C%d") in
  let page = 16 in
  let ptr = page * Hw.Addr.page_size in
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Init; wid = 0; peer = -1; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Add; wid = 0; peer = -1; ptr; size = 64; rw = true });
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Open; wid = 0; peer = 2; ptr = 0; size = 0; rw = true });
  Replay.feed t (Telemetry.Event.Window_access { cid = 2; owner = 1; page; access = Telemetry.Event.Write });
  check_int "write before downgrade ok" 0 (List.length (Replay.findings t));
  Replay.feed t (Telemetry.Event.Window { cid = 1; op = Telemetry.Event.Downgrade; wid = 0; peer = -1; ptr; size = 0; rw = false });
  Replay.feed t (Telemetry.Event.Window_access { cid = 2; owner = 1; page; access = Telemetry.Event.Write });
  let fs = Replay.findings t in
  check_int "one finding" 1 (List.length fs);
  check_bool "write-through-ro" true ((List.hd fs).Report.pass = "write-through-ro")

(* --- seeded broken examples --------------------------------------------- *)

let test_seeded_all_caught () =
  List.iter
    (fun (sc : Seeded.scenario) ->
      if not (Seeded.caught sc) then
        Alcotest.failf "seeded scenario %s not caught (expected %s/%s, got %d findings: %s)"
          sc.Seeded.sc_name sc.Seeded.expect_pass
          (Report.severity_name sc.Seeded.expect_severity)
          (List.length sc.Seeded.findings)
          (String.concat ", " (keys sc.Seeded.findings)))
    (Seeded.all ())

let test_seeded_static_exactly_one () =
  List.iter
    (fun (sc : Seeded.scenario) ->
      check_int (sc.Seeded.sc_name ^ " finding count") 1 (List.length sc.Seeded.findings))
    [
      Seeded.missing_trampoline ();
      Seeded.uncovered_pointer ();
      Seeded.leaked_window ();
      Seeded.ro_write ();
    ]

(* --- report / baseline --------------------------------------------------- *)

let test_baseline_diff () =
  let f key severity =
    Report.make ~pass:"coverage" ~severity ~plane:Report.Static ~component:"X"
      ~detail:"d" ~key
  in
  let fs = [ f "a" Report.High; f "b" Report.Medium ] in
  check_int "counts" 2 (List.length (Report.baseline_counts fs));
  let fresh, resolved = Report.diff_baseline ~baseline:[ ("a", 1); ("c", 1) ] fs in
  check_bool "fresh" true (fresh = [ ("b", 1) ]);
  check_bool "resolved" true (resolved = [ ("c", 1) ])

let test_dedup_counts () =
  let f key =
    Report.make ~pass:"leak" ~severity:Report.High ~plane:Report.Static ~component:"X"
      ~detail:"d" ~key
  in
  let fs = [ f "a"; f "b"; f "a"; f "a" ] in
  (match Report.dedup fs with
  | [ x; y ] ->
      check_bool "order kept" true (x.Report.key = "a" && y.Report.key = "b");
      check_int "a collapsed to 3" 3 x.Report.count;
      check_int "b stays 1" 1 y.Report.count
  | ds -> Alcotest.failf "expected 2 deduped findings, got %d" (List.length ds));
  (* the baseline is invariant under dedup: counts are summed, not lost *)
  check_bool "baseline invariant" true
    (Report.baseline_counts fs = Report.baseline_counts (Report.dedup fs))

(* --- shipped stacks analyse clean ---------------------------------------- *)

let test_fs_stack_clean () =
  let sys = Libos.Boot.fs_stack ~protection:Types.Full () in
  let fs = Static.run_built sys.Libos.Boot.built in
  if fs <> [] then
    Alcotest.failf "fs stack: %d findings: %s" (List.length fs)
      (String.concat ", " (keys fs))

let test_net_stack_clean () =
  let sys = Libos.Boot.net_stack ~protection:Types.Full () in
  let fs = Static.run_built sys.Libos.Boot.built in
  if fs <> [] then
    Alcotest.failf "net stack: %d findings: %s" (List.length fs)
      (String.concat ", " (keys fs))

(* Each live cubicle's summary list names every one of its exports
   exactly once; any other summary is an [__init]/[__main] entry. *)
let check_one_summary_per_export what built =
  List.iter
    (fun (name, cid, iface) ->
      let syms = List.map (fun fd -> fd.Iface.fd_sym) iface in
      let exports = Monitor.exports_of built.Builder.mon cid in
      List.iter
        (fun sym ->
          check_int
            (Printf.sprintf "%s: %s.%s summarised once" what name sym)
            1
            (List.length (List.filter (String.equal sym) syms)))
        exports;
      List.iter
        (fun sym ->
          check_bool
            (Printf.sprintf "%s: %s.%s is an export or entry" what name sym)
            true
            (List.mem sym exports || sym = Ir.init_sym || sym = "__main"))
        syms)
    (Builder.live built)

let test_one_summary_per_export () =
  let fs merge_fs =
    (Libos.Boot.fs_stack ~merge_fs ~protection:Types.Full ()).Libos.Boot.built
  in
  check_one_summary_per_export "fs" (fs false);
  check_one_summary_per_export "merged fs" (fs true);
  let net =
    Libos.Boot.net_stack ~protection:Types.Full
      ~extra:[ (Httpd.Server.component (), Types.Isolated) ]
      ()
  in
  check_one_summary_per_export "net+NGINX" net.Libos.Boot.built;
  let disk = Libos.Blkdev.create_disk ~sectors:4096 in
  let fat = Libos.Boot.fat_stack ~protection:Types.Full ~disk () in
  check_one_summary_per_export "fat" fat.Libos.Boot.built;
  let tenants = Httpd.Tenant.boot ~mem_bytes:(64 * 1024 * 1024) () in
  Httpd.Tenant.spawn tenants 0;
  check_one_summary_per_export "tenant" (Httpd.Tenant.built tenants)

(* --- qcheck properties ---------------------------------------------------- *)

(* Random well-formed single-client programs plus five injectable
   violations. Generators vary buffer size, cleanup style (remove vs
   destroy), whether the window is closed, and harmless padding
   statements. *)

type injection = Clean | No_thunk | Drop_grant | Shrink_grant | Drop_open | Drop_remove

let gen_case =
  QCheck.Gen.(
    let* size_q = int_range 1 16 in
    let size = size_q * 16 in
    let* use_destroy = bool in
    let* close_first = bool in
    let* pad = bool in
    let* inj = oneofl [ Clean; No_thunk; Drop_grant; Shrink_grant; Drop_open; Drop_remove ] in
    return (size, use_destroy, close_first, pad, inj))

let build_case (size, use_destroy, close_first, pad, inj) =
  let grant_bytes = match inj with Shrink_grant -> size / 2 | _ -> size in
  let body =
    (if pad then [ Iface.Alloc { buf = "scratch"; bytes = 16 } ] else [])
    @ [ Iface.Alloc { buf = "req"; bytes = size } ]
    @ (match inj with
      | Drop_grant -> []
      | _ ->
          [
            Iface.Window_add
              {
                win = "w";
                buf = Iface.Local "req";
                bytes = grant_bytes;
                standing = false;
                rw = false;
              };
          ])
    @ (match inj with
      | Drop_open | Drop_grant -> []
      | _ -> [ Iface.Window_open { win = "w"; peer = "SERVER" } ])
    @ [ Iface.Call { sym = "srv"; ptr_args = [ (0, Iface.Local "req", size) ] } ]
    @ (if close_first && inj <> Drop_grant && inj <> Drop_open then
         [ Iface.Window_close { win = "w"; peer = "SERVER" } ]
       else [])
    @
    match inj with
    | Drop_remove | Drop_grant -> []
    | _ ->
        if use_destroy then [ Iface.Window_destroy { win = "w" } ]
        else [ Iface.Window_remove { win = "w"; buf = Iface.Local "req" } ]
  in
  let missing_thunks = match inj with No_thunk -> [ "srv" ] | _ -> [] in
  Ir.make ~missing_thunks [ client body; server () ]

let expected_key (_, _, _, _, inj) =
  match inj with
  | Clean -> None
  | No_thunk -> Some "trampoline:no-thunk:CLIENT.main:srv"
  | Drop_grant -> Some "coverage:no-grant:CLIENT.main:srv:0:SERVER"
  | Shrink_grant -> Some "coverage:partial:CLIENT.main:srv:0:SERVER"
  | Drop_open -> Some "coverage:not-open:CLIENT.main:srv:0:SERVER"
  | Drop_remove -> Some "leak:CLIENT.main:w/req"

let prop_injection =
  QCheck.Test.make ~count:200
    ~name:"cubicheck: well-formed clean; each injected violation yields exactly one finding"
    (QCheck.make gen_case)
    (fun case ->
      let fs = Static.run (build_case case) in
      match expected_key case with
      | None -> fs = []
      | Some k -> List.length fs = 1 && (List.hd fs).Report.key = k)

(* Differential: [Window.covers ~access] / [covered_prefix ~access]
   must agree with a naive per-byte sweep over the range list, for
   random scripts of R/RW grants, downgrades and revocations. *)

type wop = W_grant of int * int * bool | W_down of int | W_revoke of int

let gen_wscript =
  QCheck.Gen.(
    let op =
      frequency
        [
          ( 3,
            let* off = int_range 0 31 in
            let* len = int_range 1 8 in
            let* rw = bool in
            return (W_grant (off, len, rw)) );
          (1, map (fun o -> W_down o) (int_range 0 31));
          (1, map (fun o -> W_revoke o) (int_range 0 31));
        ]
    in
    let* n = int_range 0 14 in
    list_size (return n) op)

let prop_covers_reference =
  QCheck.Test.make ~count:300
    ~name:"window: covers ~access agrees with a per-byte reference sweep"
    (QCheck.make gen_wscript)
    (fun script ->
      let base = 0x4000 in
      let tbl = Window.create_table ~owner:1 ~ncubicles:4 ~index:(Window.create_index 64) in
      let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
      (* reference: newest-first range list; down/revoke hit the newest
         range rooted at ptr, mirroring the Window implementation *)
      let ranges = ref [] in
      List.iter
        (fun op ->
          match op with
          | W_grant (off, len, rw) ->
              let ptr = base + (off * 16) and size = len * 16 in
              Window.add_range ~perm:(if rw then Window.RW else Window.R) tbl w ~ptr ~size;
              ranges := (ptr, size, ref rw) :: !ranges
          | W_down off -> (
              let ptr = base + (off * 16) in
              match List.find_opt (fun (p, _, _) -> p = ptr) !ranges with
              | None -> ()
              | Some (_, _, rw) ->
                  Window.downgrade_range w ~ptr;
                  rw := false)
          | W_revoke off ->
              let ptr = base + (off * 16) in
              if List.exists (fun (p, _, _) -> p = ptr) !ranges then begin
                Window.remove_range tbl w ~ptr;
                let removed = ref false in
                ranges :=
                  List.filter
                    (fun (p, _, _) ->
                      if (not !removed) && p = ptr then (
                        removed := true;
                        false)
                      else true)
                    !ranges
              end)
        script;
      let byte_ok access b =
        List.exists
          (fun (p, s, rw) -> p <= b && b < p + s && (access = Window.Read || !rw))
          !ranges
      in
      let ref_prefix access ptr size =
        let n = ref 0 in
        (try
           for b = ptr to ptr + size - 1 do
             if byte_ok access b then incr n else raise Exit
           done
         with Exit -> ());
        !n
      in
      let queries = [ (0, 4); (2, 8); (4, 2); (8, 16); (16, 8); (24, 12); (30, 4) ] in
      List.for_all
        (fun access ->
          List.for_all
            (fun (qoff, qlen) ->
              let ptr = base + (qoff * 16) and size = qlen * 16 in
              Window.covered_prefix ~access w ~ptr ~size = ref_prefix access ptr size
              && Window.covers ~access w ~ptr ~size
                 = (size > 0 && ref_prefix access ptr size >= size))
            queries)
        [ Window.Read; Window.Write ])

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_injection; prop_covers_reference ]

let () =
  Alcotest.run "analysis"
    [
      ( "callgraph",
        [
          Alcotest.test_case "clean" `Quick test_callgraph_clean;
          Alcotest.test_case "missing thunk" `Quick test_callgraph_missing_thunk;
          Alcotest.test_case "missing guard" `Quick test_callgraph_missing_guard;
          Alcotest.test_case "direct call" `Quick test_callgraph_direct_call;
          Alcotest.test_case "unresolved" `Quick test_callgraph_unresolved;
          Alcotest.test_case "edges" `Quick test_callgraph_edges;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "no grant" `Quick test_coverage_no_grant;
          Alcotest.test_case "not open" `Quick test_coverage_not_open;
          Alcotest.test_case "partial" `Quick test_coverage_partial;
          Alcotest.test_case "branch intersection" `Quick test_coverage_branch_intersection;
          Alcotest.test_case "init seeds exports" `Quick test_coverage_init_seeds_exports;
          Alcotest.test_case "transitive accessor" `Quick test_coverage_transitive_accessor;
          Alcotest.test_case "ro write" `Quick test_coverage_ro_write;
          Alcotest.test_case "rw grant allows write" `Quick test_coverage_rw_grant_allows_write;
          Alcotest.test_case "over-privilege lint" `Quick test_overprivilege_lint;
          Alcotest.test_case "shared callee exempt" `Quick test_coverage_shared_callee_exempt;
        ] );
      ( "leaks",
        [
          Alcotest.test_case "leak flagged" `Quick test_leak_flagged;
          Alcotest.test_case "destroy clean" `Quick test_leak_destroy_clean;
          Alcotest.test_case "standing exempt" `Quick test_leak_standing_exempt;
          Alcotest.test_case "partial on branch" `Quick test_leak_partial_on_branch;
          Alcotest.test_case "ro demoted" `Quick test_leak_ro_demoted;
        ] );
      ( "grant semantics",
        [
          Alcotest.test_case "covers" `Quick test_window_covers;
          Alcotest.test_case "monitor grants" `Quick test_monitor_window_grants;
          Alcotest.test_case "ro write rejected" `Quick test_monitor_ro_write_rejected;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "crossing suppresses race" `Quick
            test_replay_crossing_suppresses_race;
          Alcotest.test_case "race detected" `Quick test_replay_race_detected;
          Alcotest.test_case "mirror tracks acl" `Quick test_replay_mirror_tracks_acl;
          Alcotest.test_case "write through ro" `Quick test_replay_write_through_ro;
          Alcotest.test_case "downgrade tracked" `Quick test_replay_downgrade_tracked;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "all caught" `Quick test_seeded_all_caught;
          Alcotest.test_case "static exactly one" `Quick test_seeded_static_exactly_one;
        ] );
      ( "report",
        [
          Alcotest.test_case "baseline diff" `Quick test_baseline_diff;
          Alcotest.test_case "dedup counts" `Quick test_dedup_counts;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "fs stack clean" `Quick test_fs_stack_clean;
          Alcotest.test_case "net stack clean" `Quick test_net_stack_clean;
          Alcotest.test_case "one summary per export" `Quick test_one_summary_per_export;
        ] );
      ("properties", qsuite);
    ]
