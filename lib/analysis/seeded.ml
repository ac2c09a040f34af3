open Cubicle

(* Deliberately-broken examples, one per detector. Each scenario names
   the pass and severity it must trip; the bench `analyze` command and
   the test suite both assert that CubiCheck catches every one. The
   static four are synthetic IR programs; the dynamic six run real
   monitor workloads under tracing, judged by replay, by the online
   bus sink or by summary inference. *)

type scenario = {
  sc_name : string;
  expect_pass : string;
  expect_severity : Report.severity;
  findings : Report.finding list;
}

let caught sc =
  List.exists
    (fun f -> f.Report.pass = sc.expect_pass && f.Report.severity = sc.expect_severity)
    sc.findings

(* 1. A cross-cubicle call with no trampoline thunk installed: the CFI
   escape hatch of paper §5.5. *)
let missing_trampoline () =
  let p =
    Ir.make ~missing_thunks:[ "srv_process" ]
      [
        ( "CLIENT",
          Types.Isolated,
          [ "client_main" ],
          [ Iface.fundecl "client_main" [ Iface.Call { sym = "srv_process"; ptr_args = [] } ] ] );
        ( "SERVER",
          Types.Isolated,
          [ "srv_process" ],
          [ Iface.fundecl ~derefs:[] "srv_process" [] ] );
      ]
  in
  {
    sc_name = "missing-trampoline";
    expect_pass = "trampoline";
    expect_severity = Report.Critical;
    findings = Static.run p;
  }

(* 2. A pointer argument crossing the boundary with no window grant
   covering it: the callee faults on first dereference. *)
let uncovered_pointer () =
  let p =
    Ir.make
      [
        ( "CLIENT",
          Types.Isolated,
          [ "client_main" ],
          [
            Iface.fundecl "client_main"
              [
                Iface.Alloc { buf = "req"; bytes = 128 };
                Iface.Call
                  { sym = "srv_process"; ptr_args = [ (0, Iface.Local "req", 128) ] };
              ];
          ] );
        ( "SERVER",
          Types.Isolated,
          [ "srv_process" ],
          [ Iface.fundecl ~derefs:[ 0 ] "srv_process" [] ] );
      ]
  in
  {
    sc_name = "uncovered-pointer";
    expect_pass = "coverage";
    expect_severity = Report.High;
    findings = Static.run p;
  }

(* 3. A grant with no matching remove on any path: the server keeps
   access to the client's buffer after the call returns. *)
let leaked_window () =
  let p =
    Ir.make
      [
        ( "CLIENT",
          Types.Isolated,
          [ "client_main" ],
          [
            Iface.fundecl "client_main"
              [
                Iface.Alloc { buf = "req"; bytes = 128 };
                Iface.Window_add
                  { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = true };
                Iface.Window_open { win = "w"; peer = "SERVER" };
                Iface.Call
                  { sym = "srv_process"; ptr_args = [ (0, Iface.Local "req", 128) ] };
                Iface.Window_close { win = "w"; peer = "SERVER" };
                (* missing: Window_remove / Window_destroy *)
              ];
          ] );
        ( "SERVER",
          Types.Isolated,
          [ "srv_process" ],
          (* writes: the RW grant is justified, so only the leak fires *)
          [ Iface.fundecl ~derefs:[ 0 ] ~writes:[ 0 ] "srv_process" [] ] );
      ]
  in
  {
    sc_name = "leaked-window";
    expect_pass = "leak";
    expect_severity = Report.High;
    findings = Static.run p;
  }

(* 4. A callee that writes through a pointer argument whose covering
   grant is read-only. Statically provable: lazy trap-and-map retags
   the page on the callee's first *read*, so the later write never
   faults — the analyzer is the only thing that can see it. *)
let ro_write () =
  let p =
    Ir.make
      [
        ( "CLIENT",
          Types.Isolated,
          [ "client_main" ],
          [
            Iface.fundecl "client_main"
              [
                Iface.Alloc { buf = "req"; bytes = 128 };
                Iface.Window_add
                  { win = "w"; buf = Iface.Local "req"; bytes = 128; standing = false; rw = false };
                Iface.Window_open { win = "w"; peer = "SERVER" };
                Iface.Call
                  { sym = "srv_fill"; ptr_args = [ (0, Iface.Local "req", 128) ] };
                Iface.Window_remove { win = "w"; buf = Iface.Local "req" };
              ];
          ] );
        ( "SERVER",
          Types.Isolated,
          [ "srv_fill" ],
          [ Iface.fundecl ~derefs:[ 0 ] ~writes:[ 0 ] "srv_fill" [] ] );
      ]
  in
  {
    sc_name = "write-through-ro-static";
    expect_pass = "coverage";
    expect_severity = Report.Critical;
    findings = Static.run p;
  }

(* Dynamic scenarios: a real monitor under Full protection, tracing
   on, replayed through the mirror. *)

let mk_dynamic ?ncores () =
  let mon = Monitor.create ?ncores ~protection:Types.Full () in
  let a = Monitor.create_cubicle mon ~name:"OWNER" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  let b = Monitor.create_cubicle mon ~name:"PEER1" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1 in
  let c = Monitor.create_cubicle mon ~name:"PEER2" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1 in
  let bus = Monitor.bus mon in
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_tracing bus true;
  (mon, a, b, c, bus)

let replay_bus mon bus =
  Telemetry.Bus.set_tracing bus false;
  Replay.of_bus bus ~name_of:(Monitor.cubicle_name mon)

(* 5. Two peers write the same granted page with no trampoline crossing
   between the writes: no happens-before edge, a window race. *)
let write_race () =
  let mon, a, b, c, bus = mk_dynamic () in
  let actx = Monitor.ctx_for mon a in
  let buf =
    Monitor.run_as mon a (fun () -> Api.malloc_page_aligned actx Hw.Addr.page_size)
  in
  Monitor.run_as mon a (fun () ->
      let wid = Api.window_init actx ~klass:Mm.Page_meta.Heap in
      Api.window_add actx wid ~ptr:buf ~size:Hw.Addr.page_size;
      Api.window_open actx wid b;
      Api.window_open actx wid c);
  Monitor.run_as mon b (fun () -> Api.write_u8 (Monitor.ctx_for mon b) buf 0x11);
  Monitor.run_as mon c (fun () -> Api.write_u8 (Monitor.ctx_for mon c) buf 0x22);
  {
    sc_name = "write-race";
    expect_pass = "race";
    expect_severity = Report.High;
    findings = replay_bus mon bus;
  }

(* 6. A peer writes after the owner closed the window: under causal
   revocation (§5.6) the page still carries the peer's tag, so the
   write never faults — only the replay mirror sees it. *)
let use_after_close () =
  let mon, a, b, _c, bus = mk_dynamic () in
  let actx = Monitor.ctx_for mon a in
  let buf =
    Monitor.run_as mon a (fun () -> Api.malloc_page_aligned actx Hw.Addr.page_size)
  in
  let wid =
    Monitor.run_as mon a (fun () ->
        let wid = Api.window_init actx ~klass:Mm.Page_meta.Heap in
        Api.window_add actx wid ~ptr:buf ~size:Hw.Addr.page_size;
        Api.window_open actx wid b;
        wid)
  in
  (* first write faults, trap-and-map retags the page to PEER1 *)
  Monitor.run_as mon b (fun () -> Api.write_u8 (Monitor.ctx_for mon b) buf 0x33);
  Monitor.run_as mon a (fun () -> Api.window_close actx wid b);
  (* stale-tag write: succeeds silently at runtime *)
  Monitor.run_as mon b (fun () -> Api.write_u8 (Monitor.ctx_for mon b) buf 0x44);
  {
    sc_name = "use-after-close";
    expect_pass = "use-after-close";
    expect_severity = Report.Critical;
    findings = replay_bus mon bus;
  }

(* 7. Two peers write the same granted page from different cores. A
   trampoline crossing separates the writes — on one core that is a
   happens-before edge and would suppress the race (scenario 4 relies
   on exactly that rule) — but the cores interleave concurrently, so
   the cross-core pair must be flagged regardless. *)
let cross_core_race () =
  let mon, a, b, c, bus = mk_dynamic ~ncores:2 () in
  Monitor.register_exports mon a
    [ { Monitor.sym = "own_sync"; fn = (fun _ _ -> 0); stack_bytes = 0 } ];
  let actx = Monitor.ctx_for mon a in
  let buf =
    Monitor.run_as mon a (fun () -> Api.malloc_page_aligned actx Hw.Addr.page_size)
  in
  Monitor.run_as mon a (fun () ->
      let wid = Api.window_init actx ~klass:Mm.Page_meta.Heap in
      Api.window_add actx wid ~ptr:buf ~size:Hw.Addr.page_size;
      Api.window_open actx wid b;
      Api.window_open actx wid c);
  (* core 0: PEER1 writes, then a trampoline crossing *)
  Monitor.run_as mon b (fun () -> Api.write_u8 (Monitor.ctx_for mon b) buf 0x55);
  ignore (Monitor.call mon ~caller:b (Monitor.import "own_sync") [||]);
  (* core 1: PEER2 writes — same-core, the crossing would clear it *)
  Hw.Cpu.set_core (Monitor.cpu mon) 1;
  Monitor.run_as mon c (fun () -> Api.write_u8 (Monitor.ctx_for mon c) buf 0x66);
  Hw.Cpu.set_core (Monitor.cpu mon) 0;
  {
    sc_name = "cross-core-race";
    expect_pass = "race";
    expect_severity = Report.High;
    findings = replay_bus mon bus;
  }

(* 8. The dynamic twin of scenario 4, caught by the *online* sink: the
   peer reads first (trap-and-map retags the page to the peer's key,
   which grants full RW), then writes through the R-only grant — MPK
   never faults, only the live mirror attached to the bus sees it. *)
let write_through_ro () =
  let mon, a, b, _c, bus = mk_dynamic () in
  let mirror = Replay.create ~name_of:(Monitor.cubicle_name mon) in
  Telemetry.Bus.set_sink bus (Some (Replay.online_sink mirror));
  let actx = Monitor.ctx_for mon a in
  let buf =
    Monitor.run_as mon a (fun () -> Api.malloc_page_aligned actx Hw.Addr.page_size)
  in
  Monitor.run_as mon a (fun () ->
      let wid = Api.window_init actx ~klass:Mm.Page_meta.Heap in
      Api.window_add actx ~perm:Window.R wid ~ptr:buf ~size:Hw.Addr.page_size;
      Api.window_open actx wid b);
  (* first access is a READ: trap-and-map retags the page to PEER1 *)
  ignore (Monitor.run_as mon b (fun () -> Api.read_u8 (Monitor.ctx_for mon b) buf));
  (* the write through the R-only grant succeeds silently at runtime *)
  Monitor.run_as mon b (fun () -> Api.write_u8 (Monitor.ctx_for mon b) buf 0x77);
  Telemetry.Bus.set_sink bus None;
  Telemetry.Bus.set_tracing bus false;
  {
    sc_name = "write-through-ro-online";
    expect_pass = "write-through-ro";
    expect_severity = Report.Critical;
    findings = Replay.findings mirror;
  }

(* 9. Tag virtualisation with the eviction scrub skipped: OWNER's
   physical tag is evicted and recycled to ACCESSOR, but (in the buggy
   world this scenario simulates) OWNER's pages were never retagged —
   so ACCESSOR's own tag now opens OWNER's memory and MPK cannot fault.
   The real keymux does retag, so the access itself is synthesized as a
   raw [Window_access] on the bus; the eviction/fault-in telemetry
   around it is genuine, and the replay mirror's key plane connects the
   two into a key-alias verdict. *)
let key_alias () =
  let mon = Monitor.create ~virtualise:true ~protection:Types.Full () in
  let bus = Monitor.bus mon in
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_tracing bus true;
  let mk name =
    Monitor.create_cubicle mon ~name ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
  in
  (* OWNER binds first; 13 fillers occupy the rest of the 14-tag pool;
     ACCESSOR's fault-in then evicts the LRU resident — OWNER — and
     recycles its tag. *)
  let owner = mk "OWNER" in
  for i = 1 to 13 do
    ignore (mk (Printf.sprintf "FILLER%d" i))
  done;
  let accessor = mk "ACCESSOR" in
  ignore (Monitor.cubicle_key mon accessor);
  let page = Hw.Addr.page_of (Monitor.stack_base mon owner) in
  Telemetry.Bus.emit bus
    (Telemetry.Event.Window_access
       { cid = accessor; owner; page; access = Telemetry.Event.Read });
  {
    sc_name = "key-alias";
    expect_pass = "key-alias";
    expect_severity = Report.Critical;
    findings = replay_bus mon bus;
  }

(* 10. An export calls a symbol its summary omits. CLIENT's exports
   have empty bodies, so it declares no call and its guard page holds
   no entry for srv_process; yet the crossing goes through, since a
   crossing does not read its guard. Only the trace shows the edge. *)
let undeclared_call ?(declared = false) () =
  let mon = Monitor.create ~protection:Types.Full () in
  let srv = Monitor.import "srv_process" in
  let client_body = if declared then [ Iface.Call { sym = "srv_process"; ptr_args = [] } ] else [] in
  let built =
    Builder.build mon
      [
        ( Builder.component
            ~exports:
              [ Builder.export "client_main" (fun ctx _ -> Api.call ctx srv [||]) client_body ]
            "CLIENT",
          Types.Isolated );
        ( Builder.component ~exports:[ Builder.export "srv_process" (fun _ _ -> 0) [] ] "SERVER",
          Types.Isolated );
        ( Builder.component
            ~entries:
              [ Iface.fundecl "__main" [ Iface.Call { sym = "client_main"; ptr_args = [] } ] ]
            "DRIVER",
          Types.Isolated );
      ]
  in
  let bus = Monitor.bus mon in
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_tracing bus true;
  ignore
    (Monitor.call mon ~caller:(Builder.cid built "DRIVER") (Monitor.import "client_main") [||]);
  Telemetry.Bus.set_tracing bus false;
  let inf = Infer.create () in
  Infer.run inf (Telemetry.Bus.events bus);
  {
    sc_name = "undeclared-call";
    expect_pass = "summary";
    expect_severity = Report.Critical;
    findings = Infer.check inf (Ir.of_built built);
  }

let all () =
  [
    missing_trampoline ();
    uncovered_pointer ();
    leaked_window ();
    ro_write ();
    write_race ();
    use_after_close ();
    cross_core_race ();
    write_through_ro ();
    key_alias ();
    undeclared_call ();
  ]
