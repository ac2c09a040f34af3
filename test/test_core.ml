(* Tests for the CubicleOS core: cubicles, windows, trap-and-map,
   cross-cubicle calls, loader scanning, builder, CFI. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let is_violation f = match f () with
  | _ -> false
  | exception Hw.Fault.Violation _ -> true

(* A tiny two-cubicle system: FOO and BAR (the paper's Figure 1c),
   built directly through the monitor (no builder). *)
let mk_system ?(protection = Types.Full) () =
  let mon = Monitor.create ~protection () in
  let foo = Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  let bar = Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  (mon, foo, bar)

(* BAR's exported function: bar(ptr, a) writes 0xAA at ptr[a]. *)
let register_bar mon _bar =
  Monitor.register_exports mon (Monitor.lookup_cubicle mon "BAR")
    [
      {
        Monitor.sym = "bar";
        fn = (fun ctx args -> Api.write_u8 ctx (args.(0) + args.(1)) 0xAA; 0);
        stack_bytes = 0;
      };
    ]

(* --- windows (unit) -------------------------------------------------------- *)

let test_window_table () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:8 ~index:(Window.create_index 64) in
  let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
  Window.add_range tbl w ~ptr:0x1000 ~size:64;
  check_bool "contains" true (Window.contains w 0x1020);
  check_bool "not contains" false (Window.contains w 0x1040);
  Window.open_for w 3;
  check_bool "open for 3" true (Window.is_open_for w 3);
  check_bool "closed for 2" false (Window.is_open_for w 2);
  Window.close_for w 3;
  check_bool "closed again" false (Window.is_open_for w 3);
  List.iter (Window.open_for w) [ 5; 2; 7; 2 ];
  Alcotest.(check (list int)) "grantees ascending, once each" [ 2; 5; 7 ] w.Window.opened;
  Alcotest.check_raises "outside the universe"
    (Invalid_argument "Window: cubicle 8 outside universe 8") (fun () -> Window.open_for w 8);
  Window.close_all w;
  Alcotest.(check (list int)) "close_all" [] w.Window.opened;
  (* search only inspects the right class array *)
  check_bool "search heap" true
    (Window.search tbl ~klass:Mm.Page_meta.Heap ~addr:0x1010 != Window.none);
  check_bool "search stack" true
    (Window.search tbl ~klass:Mm.Page_meta.Stack ~addr:0x1010 == Window.none)

let test_window_destroy () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:8 ~index:(Window.create_index 64) in
  let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
  let wid = w.Window.wid in
  Window.destroy tbl w;
  Deny.check "find fails" (No_window { wid; cid = 1 }) (fun () -> Window.find tbl wid);
  check_int "no live windows" 0 (Window.count tbl)

let test_window_remove_range () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:8 ~index:(Window.create_index 64) in
  let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
  Window.add_range tbl w ~ptr:0x1000 ~size:64;
  Window.add_range tbl w ~ptr:0x2000 ~size:64;
  Window.remove_range tbl w ~ptr:0x1000;
  check_bool "first gone" false (Window.contains w 0x1000);
  check_bool "second stays" true (Window.contains w 0x2000);
  Deny.check "remove unknown errors" (No_range_at { wid = w.Window.wid; ptr = 0x9999 })
    (fun () -> Window.remove_range tbl w ~ptr:0x9999)

(* Regression: two grants sharing a base address are two ranges, and one
   remove_range must revoke exactly one of them (it used to delete every
   range starting at the pointer). *)
let test_window_remove_range_duplicates () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:8 ~index:(Window.create_index 64) in
  let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
  Window.add_range tbl w ~ptr:0x1000 ~size:64;
  Window.add_range tbl w ~ptr:0x1000 ~size:4096;
  Window.remove_range tbl w ~ptr:0x1000;
  check_bool "one grant remains" true (Window.contains w 0x1000);
  check_int "exactly one range left" 1 (List.length w.Window.ranges);
  Window.remove_range tbl w ~ptr:0x1000;
  check_bool "second remove revokes the other" false (Window.contains w 0x1000);
  Deny.check "third remove errors" (No_range_at { wid = w.Window.wid; ptr = 0x1000 })
    (fun () -> Window.remove_range tbl w ~ptr:0x1000)

(* --- batched window ops & grant forwarding ----------------------------------- *)

let test_window_add_ranges_batch () =
  let mon, foo, bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let a = Api.malloc_page_aligned ctx 4096 in
  let b = Api.malloc_page_aligned ctx 4096 in
  let c = Api.malloc_page_aligned ctx 4096 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  let stats = Monitor.stats mon in
  let before = Stats.window_ops stats in
  Api.window_add_ranges ctx wid [ (a, 4096); (b, 4096); (c, 4096) ];
  check_int "one monitor crossing for three grants" 1 (Stats.window_ops stats - before);
  Api.window_open ctx wid bar;
  register_bar mon bar;
  (* all three pages really are granted *)
  List.iter
    (fun p -> ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| p; 0 |]))
    [ a; b; c ];
  Deny.check "empty batch rejected" (Empty_batch Ranges) (fun () ->
      Api.window_add_ranges ctx wid [])

let test_window_add_ranges_atomic () =
  (* one bad range rejects the whole batch: nothing is granted *)
  let mon, foo, _ = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let a = Api.malloc_page_aligned ctx 4096 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Deny.check "batch with unowned range rejected" (Unowned_page 0) (fun () ->
      Api.window_add_ranges ctx wid [ (a, 4096); (0x10, 64) ]);
  let w = Window.find (Monitor.windows_of mon foo) wid in
  check_int "no range leaked from rejected batch" 0 (List.length w.Window.ranges);
  (* an empty span is rejected with the rest of the batch, not after
     the ranges before it were granted *)
  Deny.check "batch with an empty range rejected" (Bad_range_size { wid; size = 0 })
    (fun () -> Api.window_add_ranges ctx wid [ (a, 4096); (a, 0) ]);
  check_int "no range leaked from the empty-span batch" 0 (List.length w.Window.ranges)

let test_window_open_many () =
  let mon, foo, bar = mk_system () in
  let baz =
    Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  let ctx = Monitor.ctx_for mon foo in
  let a = Api.malloc_page_aligned ctx 4096 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:a ~size:4096;
  let stats = Monitor.stats mon in
  let before = Stats.window_ops stats in
  Api.window_open_many ctx wid [ bar; baz ];
  check_int "one monitor crossing for two opens" 1 (Stats.window_ops stats - before);
  let w = Window.find (Monitor.windows_of mon foo) wid in
  check_bool "open for both peers" true (Window.is_open_for w bar && Window.is_open_for w baz);
  Deny.check "self in peer list rejected" (Window_to_self { dedicated = false }) (fun () ->
      Api.window_open_many ctx wid [ foo ])

let test_window_forward () =
  let mon, foo, bar = mk_system () in
  let baz =
    Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  Monitor.register_exports mon baz
    [
      {
        Monitor.sym = "baz_touch";
        fn = (fun ctx args -> Api.read_u8 ctx args.(0));
        stack_bytes = 0;
      };
    ];
  let ctx_foo = Monitor.ctx_for mon foo in
  let ctx_bar = Monitor.ctx_for mon bar in
  let buf = Api.malloc_page_aligned ctx_foo 4096 in
  let wid = Api.window_init ctx_foo ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx_foo wid ~ptr:buf ~size:4096;
  (* a holder can only forward a window that is open for it *)
  Deny.check "non-holder cannot forward"
    (Not_open_for_forwarder { wid; owner = foo; forwarder = bar })
    (fun () -> Api.window_forward ctx_bar ~owner:foo wid baz);
  Api.window_open ctx_foo wid bar;
  Deny.check "forward to the owner rejected" (Forward_to_owner { owner = foo; wid })
    (fun () -> Api.window_forward ctx_bar ~owner:foo wid foo);
  Api.window_forward ctx_bar ~owner:foo wid baz;
  let w = Window.find (Monitor.windows_of mon foo) wid in
  check_bool "grant extended to third party" true (Window.is_open_for w baz);
  (* and the third party can really touch the owner's page *)
  check_int "baz reads through forwarded grant" 0
    (Monitor.call mon ~caller:foo (Monitor.import "baz_touch") [| buf |]);
  (* the owner can also forward its own window directly *)
  let quux =
    Monitor.create_cubicle mon ~name:"QUUX" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  Api.window_forward ctx_foo ~owner:foo wid quux;
  check_bool "owner self-forward opens" true (Window.is_open_for w quux)

(* --- spatial isolation ------------------------------------------------------ *)

let test_spatial_isolation () =
  let mon, foo, bar = mk_system () in
  let foo_buf = Monitor.malloc mon foo 64 in
  Hw.Cpu.wrpkru (Monitor.cpu mon) Hw.Pkru.all_allow;
  Hw.Cpu.write_u8 (Monitor.cpu mon) foo_buf 42;
  (* run as BAR: FOO's heap must be unreachable *)
  register_bar mon bar;
  check_bool "BAR cannot write FOO heap" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "bar") [| foo_buf; 0 |]))

let test_window_grants_access () =
  (* The Figure 1c flow: FOO opens a window to its array for BAR, calls
     bar(array, 5), BAR writes through the pointer. *)
  let mon, foo, bar = mk_system () in
  register_bar mon bar;
  let ctx = Monitor.ctx_for mon foo in
  let array = Api.malloc_page_aligned ctx 10 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:array ~size:10;
  Api.window_open ctx wid bar;
  check_int "bar returns" 0
    (Monitor.call mon ~caller:foo (Monitor.import "bar") [| array; 5 |]);
  Api.window_close ctx wid bar;
  (* FOO sees the write (zero-copy sharing) *)
  Hw.Cpu.wrpkru (Monitor.cpu mon) Hw.Pkru.all_allow;
  check_int "0xAA written" 0xAA (Hw.Cpu.read_u8 (Monitor.cpu mon) (array + 5))

let test_window_close_blocks_third_party () =
  let mon, foo, bar = mk_system () in
  let baz = Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1 in
  register_bar mon bar;
  Monitor.register_exports mon baz
    [ { Monitor.sym = "baz_read"; fn = (fun ctx args -> Api.read_u8 ctx args.(0)); stack_bytes = 0 } ];
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:16;
  Api.window_open ctx wid bar;
  (* BAR can access, BAZ cannot: ACLs are per-cubicle *)
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 1 |]);
  check_bool "BAZ denied" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "baz_read") [| buf |]))

let test_causal_consistency () =
  (* Closing a window does not retag; the grantee may still touch the
     page until the owner (or another authorised cubicle) faults it
     back (§5.6 "causal tag consistency"). *)
  let mon, foo, bar = mk_system () in
  register_bar mon bar;
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:16;
  Api.window_open ctx wid bar;
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |]);
  let retags_before = Monitor.retag_count mon in
  Api.window_close ctx wid bar;
  check_int "close does not retag" retags_before (Monitor.retag_count mon);
  (* BAR still holds the tag: another call succeeds without a new retag
     (causally consistent: it could have accessed before the close). *)
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 1 |]);
  check_int "no retag on cached tag" retags_before (Monitor.retag_count mon);
  (* Now FOO touches its own page: it faults back to FOO's tag... *)
  Monitor.register_exports mon foo
    [ { Monitor.sym = "foo_touch"; fn = (fun c a -> Api.write_u8 c a.(0) 7; 0); stack_bytes = 0 } ];
  ignore (Monitor.call mon ~caller:bar (Monitor.import "foo_touch") [| buf |]);
  check_int "owner touch retags" (retags_before + 1) (Monitor.retag_count mon);
  (* ...and from now on BAR is locked out (window is closed). *)
  check_bool "BAR locked out after owner reclaim" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 2 |]))

let test_window_ownership_enforced () =
  let mon, foo, bar = mk_system () in
  let foo_ctx = Monitor.ctx_for mon foo in
  let bar_ctx = Monitor.ctx_for mon bar in
  let foo_buf = Api.malloc_page_aligned foo_ctx 16 in
  (* BAR cannot put FOO's memory into BAR's window *)
  let wid = Api.window_init bar_ctx ~klass:Mm.Page_meta.Heap in
  Deny.check "foreign memory rejected"
    (Foreign_page { page = Hw.Addr.page_of foo_buf; owner = foo; cid = bar })
    (fun () -> Api.window_add bar_ctx wid ~ptr:foo_buf ~size:16);
  (* BAR cannot manage FOO's windows: wids are per-cubicle *)
  let foo_wid = Api.window_init foo_ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add foo_ctx foo_wid ~ptr:foo_buf ~size:16;
  check_bool "bar cannot open foo's window via own table" true
    (Deny.raised (fun () -> Api.window_open bar_ctx foo_wid foo)
     = Some (No_window { wid = foo_wid; cid = bar })
    || (* wid may exist in BAR's table too; then opening it must not
          grant access to FOO's buffer *)
    not (Window.contains (Window.find (Monitor.windows_of mon bar) foo_wid) foo_buf))

let test_window_class_mismatch () =
  let mon, foo, _bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Stack in
  (* heap memory cannot enter a stack-class window *)
  Deny.check "class mismatch"
    (Wrong_class
       {
         page = Hw.Addr.page_of buf;
         page_class = Mm.Page_meta.Heap;
         wid;
         window_class = Mm.Page_meta.Stack;
       })
    (fun () -> Api.window_add ctx wid ~ptr:buf ~size:16)

let test_stack_windows () =
  (* Figure 4's actual scenario: the shared buffer is a stack variable. *)
  let mon, foo, bar = mk_system () in
  register_bar mon bar;
  let ctx = Monitor.ctx_for mon foo in
  let sp = Monitor.stack_base mon foo in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Stack in
  Api.window_add ctx wid ~ptr:sp ~size:10;
  Api.window_open ctx wid bar;
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| sp; 3 |]);
  Hw.Cpu.wrpkru (Monitor.cpu mon) Hw.Pkru.all_allow;
  check_int "stack byte written" 0xAA (Hw.Cpu.read_u8 (Monitor.cpu mon) (sp + 3))

let test_page_granularity_leak () =
  (* Windows are enforced at page granularity: data co-located on the
     same page as a windowed buffer leaks — the reason the paper tells
     developers to segregate allocations onto separate pages. *)
  let mon, foo, bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let secret = Api.malloc ctx 8 in
  (* only run the check when the allocator co-located them *)
  if Hw.Addr.page_of secret = Hw.Addr.page_of buf then begin
    Monitor.register_exports mon bar
      [ { Monitor.sym = "bar_peek"; fn = (fun c a -> Api.read_u8 c a.(0)); stack_bytes = 0 } ];
    let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx wid ~ptr:buf ~size:16;
    Api.window_open ctx wid bar;
    (* the window covers only buf, but the whole page gets retagged once
       BAR touches buf — after which secret is exposed *)
    ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_peek") [| buf |]);
    check_int "co-located secret readable" 0
      (Monitor.call mon ~caller:foo (Monitor.import "bar_peek") [| secret |])
  end

let test_self_open_rejected () =
  let mon, foo, _ = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Deny.check "self-open rejected" (Window_to_self { dedicated = false }) (fun () ->
      Api.window_open ctx wid foo)

(* --- protection levels ------------------------------------------------------ *)

let test_protection_none_no_faults () =
  let mon, foo, bar = mk_system ~protection:Types.None_ () in
  register_bar mon bar;
  let buf = Monitor.malloc mon foo 16 in
  (* no window, but no MPK either: the write goes through *)
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |]);
  check_int "no faults" 0 (Hw.Cpu.fault_count (Monitor.cpu mon))

let test_protection_mpk_no_acls () =
  (* "CubicleOS w/o ACLs": MPK faults happen but every window is open. *)
  let mon, foo, bar = mk_system ~protection:Types.Mpk () in
  register_bar mon bar;
  let buf = Monitor.malloc mon foo 16 in
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |]);
  check_bool "fault happened" true (Hw.Cpu.fault_count (Monitor.cpu mon) > 0);
  check_bool "retag happened" true (Monitor.retag_count mon > 0)

let test_protection_full_needs_window () =
  let mon, foo, bar = mk_system ~protection:Types.Full () in
  register_bar mon bar;
  let buf = Monitor.malloc mon foo 16 in
  check_bool "denied without window" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |]))

(* --- cross-cubicle calls ----------------------------------------------------- *)

let test_call_unknown_symbol_cfi () =
  let mon, foo, _ = mk_system () in
  Deny.check "unknown symbol rejected" (Unresolved_symbol "no_such_entry") (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "no_such_entry") [||]);
  check_int "counted as rejected" 1 (Stats.rejected (Monitor.stats mon))

(* An import handle caches its resolution until the symbol table
   changes. Teardown alone leaves it unresolved: the call is refused
   exactly as a call by a fresh handle (the parent's by-name path) is,
   with the same counter and traced event. A respawn under the same
   name resolves it again, to the new export. *)
let test_handle_teardown_and_respawn () =
  let mon = Monitor.create ~protection:Types.Full () in
  Telemetry.Bus.set_tracing (Monitor.bus mon) true;
  let foo =
    Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
  in
  let spawn answer =
    let cid =
      Monitor.create_cubicle mon ~name:"T0" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
    in
    Monitor.register_exports mon cid
      [ { Monitor.sym = "t0_get"; fn = (fun _ _ -> answer); stack_bytes = 0 } ];
    cid
  in
  let get = Monitor.import "t0_get" in
  let t0 = spawn 7 in
  check_int "first call" 7 (Monitor.call mon ~caller:foo get [||]);
  check_int "cached" 7 (Monitor.call mon ~caller:foo get [||]);
  Monitor.destroy_cubicle mon t0;
  let refusal imp =
    let bus = Monitor.bus mon in
    Telemetry.Bus.clear_ring bus;
    let before = Stats.rejected (Monitor.stats mon) in
    Deny.check "unresolved after teardown" (Unresolved_symbol "t0_get") (fun () ->
        Monitor.call mon ~caller:foo imp [||]);
    ( Stats.rejected (Monitor.stats mon) - before,
      List.map (fun (e : Telemetry.Bus.entry) -> e.ev) (Telemetry.Bus.events bus) )
  in
  let stale = refusal get and by_name = refusal (Monitor.import "t0_get") in
  check_int "one rejection counted" 1 (fst stale);
  check_bool "one Rejected event for the caller" true
    (snd stale = [ Telemetry.Event.Rejected { cid = foo } ]);
  check_bool "same as a fresh handle" true (stale = by_name);
  ignore (spawn 8);
  check_int "re-resolved after respawn" 8 (Monitor.call mon ~caller:foo get [||])

(* One handle serves two monitors in turn, each time reaching the
   export of the monitor it is called on. *)
let test_handle_two_monitors () =
  let boot answer =
    let mon = Monitor.create ~protection:Types.Full () in
    let foo =
      Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
    in
    let bar =
      Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
    in
    Monitor.register_exports mon bar
      [ { Monitor.sym = "answer"; fn = (fun _ _ -> answer); stack_bytes = 0 } ];
    (mon, foo)
  in
  let (m1, f1), (m2, f2) = (boot 1, boot 2) in
  let answer = Monitor.import "answer" in
  List.iter
    (fun (mon, foo, want) ->
      check_int "this monitor's export" want (Monitor.call mon ~caller:foo answer [||]))
    [ (m1, f1, 1); (m2, f2, 2); (m1, f1, 1); (m2, f2, 2) ];
  check_int "two calls on each" 2 (Stats.calls_to_sym (Monitor.stats m1) "answer");
  check_int "two calls on each" 2 (Stats.calls_to_sym (Monitor.stats m2) "answer")

let test_call_counts_edges () =
  let mon, foo, bar = mk_system () in
  register_bar mon bar;
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:16;
  Api.window_open ctx wid bar;
  for _ = 1 to 5 do
    ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |])
  done;
  check_int "edge count" 5 (Stats.calls_between (Monitor.stats mon) ~caller:foo ~callee:bar);
  check_int "sym count" 5 (Stats.calls_to_sym (Monitor.stats mon) "bar")

(* A raising callee unwinds its crossing once: cubicle and PKRU are
   restored at every level and each Call still gets its Return, traced
   or not, with or without tag virtualisation. *)
let test_call_pkru_restored_on_exception () =
  List.iter
    (fun (virtualise, traced) ->
      let mon = Monitor.create ~virtualise ~protection:Types.Full () in
      let cubicle name =
        Monitor.create_cubicle mon ~name ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
      in
      let foo = cubicle "FOO" and bar = cubicle "BAR" in
      let cpu = Monitor.cpu mon and bus = Monitor.bus mon in
      let lat = Telemetry.Latency.create () in
      Telemetry.Bus.set_tracing bus traced;
      Telemetry.Bus.set_latency bus (Some lat);
      let boom _ _ = failwith "boom" in
      (* BAR calls back into a raising FOO export; after the inner
         unwind BAR must be executing again under its own PKRU. *)
      let inner = ref None in
      let bar_mid ctx _ =
        let entry = Hw.Cpu.pkru cpu in
        try Api.call ctx (Api.import "foo_raise") [||]
        with e ->
          inner := Some (Monitor.current mon, Hw.Cpu.pkru cpu = entry);
          raise e
      in
      Monitor.register_exports mon bar
        [
          { Monitor.sym = "bar_raise"; fn = boom; stack_bytes = 0 };
          { Monitor.sym = "bar_mid"; fn = bar_mid; stack_bytes = 0 };
        ];
      Monitor.register_exports mon foo [ { Monitor.sym = "foo_raise"; fn = boom; stack_bytes = 0 } ];
      let calls_and_returns () =
        List.fold_left
          (fun (c, r) (e : Telemetry.Bus.entry) ->
            match e.ev with
            | Telemetry.Event.Call _ -> (c + 1, r)
            | Telemetry.Event.Return _ -> (c, r + 1)
            | _ -> (c, r))
          (0, 0) (Telemetry.Bus.events bus)
      in
      let expect_unwound what ~calls =
        check_int (what ^ ": nothing in flight") 0 (Telemetry.Latency.in_flight lat);
        check_int (what ^ ": no unmatched return") 0 (Telemetry.Latency.unmatched lat);
        check_int (what ^ ": latency samples") calls (Telemetry.Latency.observed lat);
        if traced then
          Alcotest.(check (pair int int)) (what ^ ": Call/Return events") (calls, calls)
            (calls_and_returns ())
      in
      let saved = Hw.Cpu.pkru cpu in
      (try ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_raise") [||])
       with Failure _ -> ());
      check_bool "pkru restored" true (Hw.Cpu.pkru cpu = saved);
      check_int "cur restored" Monitor.monitor_cid (Monitor.current mon);
      expect_unwound "one level" ~calls:1;
      Monitor.run_as mon foo (fun () ->
          let entry = Hw.Cpu.pkru cpu in
          (try ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_mid") [||])
           with Failure _ -> ());
          check_bool "outer: pkru restored" true (Hw.Cpu.pkru cpu = entry);
          check_int "outer: cur restored" foo (Monitor.current mon));
      (match !inner with
      | Some (cur, pkru_ok) ->
          check_int "inner: cur restored" bar cur;
          check_bool "inner: pkru restored" true pkru_ok
      | None -> Alcotest.fail "inner callee did not raise");
      expect_unwound "nested" ~calls:3)
    [ (false, false); (false, true); (true, true) ]

let test_nested_calls () =
  (* FOO -> BAR -> FOO reentry: the shadow discipline restores each
     level correctly. *)
  let mon, foo, bar = mk_system () in
  Monitor.register_exports mon foo
    [ { Monitor.sym = "foo_leaf"; fn = (fun _ _ -> 17); stack_bytes = 0 } ];
  Monitor.register_exports mon bar
    [
      {
        Monitor.sym = "bar_mid";
        fn = (fun ctx _ -> Api.call ctx (Api.import "foo_leaf") [||] + 1);
        stack_bytes = 0;
      };
    ];
  check_int "nested result" 18
    (Monitor.call mon ~caller:foo (Monitor.import "bar_mid") [||]);
  check_int "cur restored" Monitor.monitor_cid (Monitor.current mon)

let test_shared_cubicle_runs_with_caller_privileges () =
  let mon, foo, _bar = mk_system () in
  let libc = Monitor.create_cubicle mon ~name:"LIBC" ~kind:Types.Shared ~heap_pages:2 ~stack_pages:0 in
  Monitor.register_exports mon libc
    [
      {
        Monitor.sym = "libc_memcpy";
        fn = (fun ctx args -> Api.memcpy ctx ~dst:args.(0) ~src:args.(1) ~len:args.(2); args.(0));
        stack_bytes = 0;
      };
    ];
  (* memcpy within FOO's own heap: runs with FOO's privileges, so no
     window needed and no monitor involvement *)
  let ctx = Monitor.ctx_for mon foo in
  let a = Api.malloc ctx 32 and b = Api.malloc ctx 32 in
  Monitor.register_exports mon foo
    [
      {
        Monitor.sym = "foo_work";
        fn =
          (fun ctx args ->
            Api.write_string ctx args.(0) "hi";
            ignore (Api.call ctx (Api.import "libc_memcpy") [| args.(1); args.(0); 2 |]);
            Api.read_u8 ctx args.(1));
        stack_bytes = 0;
      };
    ];
  let calls_before = Stats.total_calls (Monitor.stats mon) in
  check_int "copied" (Char.code 'h')
    (Monitor.call mon ~caller:Monitor.monitor_cid (Monitor.import "foo_work") [| a; b |]);
  (* only foo_work transits the monitor; libc_memcpy is a shared call *)
  check_int "one monitored call" (calls_before + 1) (Stats.total_calls (Monitor.stats mon));
  check_int "one shared call" 1 (Stats.shared_calls (Monitor.stats mon))

let test_stack_argument_copy () =
  (* An export with by-stack arguments: the trampoline must copy the
     bytes from the caller's stack to the callee's stack. *)
  let mon, foo, bar = mk_system () in
  let cpu = Monitor.cpu mon in
  let foo_sp = Monitor.stack_base mon foo in
  let bar_sp = Monitor.stack_base mon bar in
  Hw.Cpu.priv_write_string cpu foo_sp "stack args: 0123456789ABCDEF";
  Monitor.register_exports mon bar
    [
      {
        Monitor.sym = "bar_stackargs";
        (* the callee reads the copied arguments from its own stack *)
        fn = (fun ctx _ -> Api.read_u8 ctx (Monitor.stack_base ctx.Monitor.mon ctx.Monitor.self + 12));
        stack_bytes = 28;
      };
    ];
  check_int "callee sees copied stack bytes" (Char.code '0')
    (Monitor.call mon ~caller:foo (Monitor.import "bar_stackargs") [||]);
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_allow;
  Alcotest.(check string) "full copy" "stack args: 0123456789ABCDEF"
    (Bytes.to_string (Hw.Cpu.priv_read_bytes cpu bar_sp 28))

(* --- loader ------------------------------------------------------------------- *)

let test_loader_rejects_wrpkru () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img =
    {
      Loader.img_name = "EVIL";
      code = Hw.Instr.assemble [ Nop; Wrpkru; Ret ];
      rodata = Bytes.empty;
      data = Bytes.empty;
      signed = false;
    }
  in
  Deny.check "rejected"
    (Forbidden_code { image = "EVIL"; hits = [ { offset = 1; what = "wrpkru" } ] })
    (fun () -> Loader.load mon img ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[])

let test_loader_rejects_syscall () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img =
    {
      Loader.img_name = "EVIL2";
      code = Hw.Instr.assemble [ Syscall ];
      rodata = Bytes.empty;
      data = Bytes.empty;
      signed = false;
    }
  in
  Deny.check "rejected"
    (Forbidden_code { image = "EVIL2"; hits = [ { offset = 0; what = "syscall" } ] })
    (fun () -> Loader.load mon img ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[])

let test_loader_rejects_hidden_sequence () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img =
    {
      Loader.img_name = "SNEAKY";
      code = Hw.Instr.assemble [ Mov_imm (1, 0x00EF010F); Ret ];
      rodata = Bytes.empty;
      data = Bytes.empty;
      signed = false;
    }
  in
  Deny.check "hidden wrpkru rejected"
    (Forbidden_code { image = "SNEAKY"; hits = [ { offset = 2; what = "wrpkru" } ] })
    (fun () -> Loader.load mon img ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[])

(* The loader scans every image handed to it directly, however often:
   the same image with a planted wrpkru is refused each time. A builder
   component's image is scanned once, at its first spawn; a respawn
   after teardown loads it without scanning. *)
let test_loader_scans_once_per_component () =
  let mon = Monitor.create ~protection:Types.Full () in
  let planted =
    {
      Loader.img_name = "PLANTED";
      code = Hw.Instr.synth_code ~ops:64 "PLANTED";
      rodata = Bytes.empty;
      data = Bytes.empty;
      signed = false;
    }
  in
  let load () =
    Loader.load mon planted ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[]
  in
  let clean = load () in
  Monitor.destroy_cubicle mon clean.Loader.cid;
  Bytes.blit (Hw.Instr.assemble [ Wrpkru ]) 0 planted.code 16 3;
  for _ = 1 to 2 do
    let s0 = Loader.scan_count () in
    Deny.check "planted wrpkru rejected"
      (Forbidden_code { image = "PLANTED"; hits = [ { offset = 16; what = "wrpkru" } ] })
      (fun () -> load ());
    check_int "scanned again" (s0 + 1) (Loader.scan_count ())
  done;
  let comp = Builder.component ~heap_pages:1 ~stack_pages:1 "RESPAWN" in
  let built = Builder.build (Monitor.create ~protection:Types.Full ()) [] in
  let s0 = Loader.scan_count () in
  let cid = List.assoc "RESPAWN" (Builder.spawn built [ (comp, Types.Isolated) ]) in
  check_int "first spawn scans" (s0 + 1) (Loader.scan_count ());
  Monitor.destroy_cubicle built.Builder.mon cid;
  ignore (Builder.spawn built [ (comp, Types.Isolated) ]);
  check_int "respawn does not scan" (s0 + 1) (Loader.scan_count ())

let test_loader_accepts_signed_trusted_code () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img =
    {
      Loader.img_name = "TRAMPOLINES";
      code = Hw.Instr.assemble [ Wrpkru; Call 0; Wrpkru; Ret ];
      rodata = Bytes.empty;
      data = Bytes.empty;
      signed = true;
    }
  in
  let loaded = Loader.load mon img ~kind:Types.Trusted ~heap_pages:1 ~stack_pages:1 ~exports:[] in
  check_bool "loaded" true (loaded.Loader.cid > 0)

let test_loader_code_execute_only () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img = Loader.image_of_ops ~name:"COMP" () in
  let loaded = Loader.load mon img ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1 ~exports:[] in
  let pt = Hw.Cpu.page_table (Monitor.cpu mon) in
  let perm = Hw.Page_table.perm pt (Hw.Addr.page_of loaded.Loader.code_base) in
  check_bool "exec" true perm.x;
  check_bool "no read" false perm.r;
  check_bool "no write" false perm.w

let test_loader_data_perms () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img =
    {
      Loader.img_name = "D";
      code = Hw.Instr.assemble [ Ret ];
      rodata = Bytes.of_string "const";
      data = Bytes.of_string "vars!";
      signed = false;
    }
  in
  let loaded = Loader.load mon img ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[] in
  let pt = Hw.Cpu.page_table (Monitor.cpu mon) in
  let ro = Hw.Page_table.perm pt (Hw.Addr.page_of loaded.Loader.rodata_base) in
  check_bool "ro readable" true ro.r;
  check_bool "ro not writable" false ro.w;
  let rw = Hw.Page_table.perm pt (Hw.Addr.page_of loaded.Loader.data_base) in
  check_bool "data writable" true rw.w;
  (* contents copied in *)
  Hw.Cpu.wrpkru (Monitor.cpu mon) Hw.Pkru.all_allow;
  Alcotest.(check string) "rodata contents" "const"
    (Bytes.to_string (Hw.Cpu.priv_read_bytes (Monitor.cpu mon) loaded.Loader.rodata_base 5))

let test_loader_page_metadata () =
  let mon = Monitor.create ~protection:Types.Full () in
  let img = Loader.image_of_ops ~name:"META" () in
  let loaded = Loader.load mon img ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1 ~exports:[] in
  let meta = Monitor.meta mon in
  check_bool "code page kind" true
    (Mm.Page_meta.kind meta (Hw.Addr.page_of loaded.Loader.code_base) = Some Mm.Page_meta.Code);
  check_bool "code page owner" true
    (Mm.Page_meta.owner meta (Hw.Addr.page_of loaded.Loader.code_base) = Some loaded.Loader.cid)

(* --- trampolines / CFI --------------------------------------------------------- *)

(* ALPHA's summary declares its call to BETA; BETA declares no call. *)
let mk_built () =
  let mon = Monitor.create ~protection:Types.Full () in
  let comps =
    [
      ( Builder.component
          ~exports:
            [
              Builder.export "alpha_fn" (fun _ _ -> 1)
                [ Iface.Call { sym = "beta_fn"; ptr_args = [] } ];
            ]
          "ALPHA",
        Types.Isolated );
      ( Builder.component
          ~exports:[ Builder.export "beta_fn" (fun _ _ -> 2) [] ]
          "BETA",
        Types.Isolated );
    ]
  in
  Builder.build mon comps

let test_builder_and_call () =
  let built = mk_built () in
  let alpha = Builder.cid built "ALPHA" in
  check_int "call works" 2
    (Monitor.call built.Builder.mon ~caller:alpha (Monitor.import "beta_fn") [||])

let test_builder_rejects_entry_naming_export () =
  (* an entry summary for one of the component's own exports would be a
     second, possibly disagreeing, declaration of that symbol *)
  check_bool "entry naming an export rejected" true
    (match
       Builder.component
         ~exports:[ Builder.export "dup_fn" (fun _ _ -> 0) [] ]
         ~entries:[ Iface.fundecl "dup_fn" [] ]
         "BADCOMP"
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_guard_page_entry_allowed () =
  let built = mk_built () in
  let tr = built.Builder.trampolines in
  let alpha = Builder.cid built "ALPHA" and beta = Builder.cid built "BETA" in
  (* entering through one's own guard page, on a declared edge, is fine *)
  Trampoline.enter_via_guard tr ~caller:alpha "beta_fn";
  (* guard entries follow the summaries: ALPHA declares one call, BETA
     none, and neither holds an entry for anything else *)
  Alcotest.(check (list string)) "ALPHA guards its declared call" [ "beta_fn" ]
    (List.filter (Trampoline.has_guard tr alpha) (Trampoline.syms tr));
  check_int "BETA declares no call, so holds no entry" 0 (Trampoline.guard_entries tr beta);
  Deny.check "no entry on an undeclared edge" (No_guard { cid = beta; sym = "alpha_fn" })
    (fun () -> Trampoline.enter_via_guard tr ~caller:beta "alpha_fn")

let test_rogue_thunk_fetch_faults () =
  (* Jumping directly into the monitor-owned trampoline thunk must
     fault under the modified MPK (tag-wide NX). *)
  let built = mk_built () in
  let alpha = Builder.cid built "ALPHA" in
  let thunk = Trampoline.thunk_addr built.Builder.trampolines "beta_fn" in
  check_bool "rogue fetch faults" true
    (is_violation (fun () ->
         Trampoline.rogue_fetch built.Builder.mon ~as_cubicle:alpha ~addr:thunk))

let test_rogue_cross_code_fetch_faults () =
  (* ALPHA jumping into BETA's code (bypassing its public entries) *)
  let mon = Monitor.create ~protection:Types.Full () in
  let img = Loader.image_of_ops ~name:"BETA" () in
  let beta = Loader.load mon img ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[] in
  let _alpha =
    Loader.load mon (Loader.image_of_ops ~name:"ALPHA" ()) ~kind:Types.Isolated
      ~heap_pages:1 ~stack_pages:1 ~exports:[]
  in
  let alpha_cid = Monitor.lookup_cubicle mon "ALPHA" in
  check_bool "cross-code fetch faults" true
    (is_violation (fun () ->
         Trampoline.rogue_fetch mon ~as_cubicle:alpha_cid ~addr:beta.Loader.code_base))

let test_own_code_fetch_allowed () =
  let mon = Monitor.create ~protection:Types.Full () in
  let loaded =
    Loader.load mon (Loader.image_of_ops ~name:"SOLO" ()) ~kind:Types.Isolated
      ~heap_pages:1 ~stack_pages:1 ~exports:[]
  in
  Trampoline.rogue_fetch mon ~as_cubicle:loaded.Loader.cid ~addr:loaded.Loader.code_base

(* --- key exhaustion -------------------------------------------------------------- *)

let test_key_exhaustion () =
  let mon = Monitor.create ~protection:Types.Full () in
  (* keys 1..14 for isolated cubicles *)
  for i = 1 to 14 do
    ignore
      (Monitor.create_cubicle mon ~name:(Printf.sprintf "C%d" i) ~kind:Types.Isolated
         ~heap_pages:1 ~stack_pages:1)
  done;
  Deny.check "15th isolated cubicle fails" (Out_of_keys { dedicated = false }) (fun () ->
      Monitor.create_cubicle mon ~name:"C15" ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1);
  (* shared cubicles do not consume isolated keys *)
  ignore
    (Monitor.create_cubicle mon ~name:"SHARED" ~kind:Types.Shared ~heap_pages:1 ~stack_pages:0)

(* --- malloc/free ------------------------------------------------------------------ *)

let test_malloc_heap_growth () =
  let mon, foo, _ = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  (* allocate more than the initial heap; the monitor grows it *)
  let blocks = List.init 20 (fun _ -> Api.malloc ctx 8192) in
  check_int "all distinct" 20 (List.length (List.sort_uniq compare blocks));
  List.iter (Api.free ctx) blocks

let test_free_foreign_pointer () =
  let mon, foo, bar = mk_system () in
  let bar_buf = Monitor.malloc mon bar 64 in
  Deny.check "foreign free rejected" (Foreign_free { name = "FOO"; addr = bar_buf })
    (fun () -> Monitor.free mon foo bar_buf)

(* free_pages takes back exactly an alloc_pages run of the caller's:
   every other base is refused, with page ownership and the free page
   count left as they were. *)
let test_alloc_pages_ownership () =
  let mon, foo, bar = mk_system () in
  let base = Monitor.alloc_pages mon foo 3 ~kind:Mm.Page_meta.Heap in
  check_bool "owned" true (Monitor.page_owner mon (Hw.Addr.page_of base) = Some foo);
  let peer_base = Monitor.alloc_pages mon bar 2 ~kind:Mm.Page_meta.Heap in
  let heap_base =
    List.find
      (fun p -> Mm.Page_meta.kind (Monitor.meta mon) p = Some Mm.Page_meta.Heap)
      (Oracle.monitor_pages_owned_by mon foo)
    |> Hw.Addr.base_of_page
  in
  let npages = Hw.Cpu.npages (Monitor.cpu mon) in
  let state () = (Monitor.free_page_count mon, List.init npages (Monitor.page_owner mon)) in
  let refused what addr =
    let before = state () in
    let expected =
      if Monitor.page_owner mon (Hw.Addr.page_of addr) = Some bar then
        Types.Run_not_owned { cid = foo; base = addr }
      else Not_allocation_base addr
    in
    Deny.check (what ^ " refused") expected (fun () -> Monitor.free_pages mon foo addr);
    check_bool (what ^ " changes nothing") true (state () = before)
  in
  refused "stack base" (Monitor.stack_base mon foo);
  refused "initial heap base" heap_base;
  refused "peer's alloc_pages base" peer_base;
  refused "interior page" (base + Hw.Addr.page_size);
  Monitor.free_pages mon foo base;
  check_bool "released" true (Monitor.page_owner mon (Hw.Addr.page_of base) = None);
  refused "double free" base

(* --- teardown (dlclose) ------------------------------------------------------------- *)

let test_destroy_cubicle () =
  let mon, foo, bar = mk_system () in
  register_bar mon bar;
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:16;
  Api.window_open ctx wid bar;
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |]);
  let bar_pages = Oracle.monitor_pages_owned_by mon bar in
  check_bool "bar owned pages" true (bar_pages <> []);
  Monitor.destroy_cubicle mon bar;
  (* its exports are gone: CFI error, not a crash *)
  Deny.check "export unresolved" (Unresolved_symbol "bar") (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "bar") [| buf; 0 |]);
  (* its pages were released *)
  check_bool "pages released" true (Oracle.monitor_pages_owned_by mon bar = []);
  (* the other cubicle is unaffected *)
  Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 5)

let test_destroy_recycles_key () =
  let mon, _foo, bar = mk_system () in
  let bar_key = Monitor.cubicle_key mon bar in
  Monitor.destroy_cubicle mon bar;
  let baz =
    Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  check_int "key reused" bar_key (Monitor.cubicle_key mon baz);
  (* and the recycled key grants no access to scrubbed memory: BAZ's
     fresh pages read as zeroes *)
  let ctx = Monitor.ctx_for mon baz in
  let b = Api.malloc ctx 16 in
  Monitor.run_as mon baz (fun () -> check_int "scrubbed" 0 (Api.read_u8 ctx b))

let test_destroy_revokes_peer_grants () =
  (* Destroying a cubicle must close it out of every peer's windows: the
     cid is recycled, and a stale `opened` bit would hand the unrelated
     successor every window the dead cubicle was ever granted. *)
  let mon, foo, bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 16 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:16;
  Api.window_open ctx wid bar;
  Monitor.destroy_cubicle mon bar;
  (* the live ACL no longer lists the dead cid *)
  List.iter
    (fun w -> check_bool "grant revoked" false (Window.is_open_for w bar))
    (Window.live_windows (Monitor.windows_of mon foo));
  (* a successor reusing the cid starts with no access to FOO's buffer *)
  let baz =
    Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  check_int "cid recycled" bar baz;
  Monitor.register_exports mon baz
    [
      {
        Monitor.sym = "baz_poke";
        fn = (fun ctx a -> Api.write_u8 ctx a.(0) 1; 0);
        stack_bytes = 0;
      };
    ];
  check_bool "successor denied" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:baz (Monitor.import "baz_poke") [| buf |]));
  (* FOO can re-grant to the successor explicitly, as for any peer *)
  Api.window_open ctx wid baz;
  check_int "explicit re-grant works" 0
    (Monitor.call mon ~caller:baz (Monitor.import "baz_poke") [| buf |])

(* Teardown closes exactly the grants still open for the dying cid: not
   one already closed by close_all, on a destroyed window, or on a
   window whose owner died first. *)
let test_destroy_closes_only_open_grants () =
  let mon, foo, bar = mk_system () in
  let qux =
    Monitor.create_cubicle mon ~name:"QUX" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  let granted_window cid =
    let ctx = Monitor.ctx_for mon cid in
    let buf = Api.malloc_page_aligned ctx 16 in
    let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx wid ~ptr:buf ~size:16;
    Api.window_open ctx wid bar;
    (ctx, wid)
  in
  let _, kept = granted_window foo in
  let ctx, cleared = granted_window foo in
  Api.window_close_all ctx cleared;
  let ctx, dropped = granted_window foo in
  Api.window_destroy ctx dropped;
  ignore (granted_window qux);
  Monitor.destroy_cubicle mon qux;
  let closes = ref [] in
  let bus = Monitor.bus mon in
  Telemetry.Bus.set_tracing bus true;
  Telemetry.Bus.set_sink bus
    (Some
       (fun e ->
         match e.Telemetry.Bus.ev with
         | Telemetry.Event.Window { cid; op = Telemetry.Event.Close; wid; peer; _ } ->
             closes := (cid, wid, peer) :: !closes
         | _ -> ()));
  Monitor.destroy_cubicle mon bar;
  Alcotest.(check (list (triple int int int))) "one Close, for the open grant"
    [ (foo, kept, bar) ] !closes;
  List.iter
    (fun w -> check_bool "grant revoked" false (Window.is_open_for w bar))
    (Window.live_windows (Monitor.windows_of mon foo))

let test_spawn_guards_cover_existing_exports () =
  (* A freshly spawned cubicle must be able to guard-call the exports
     its summary calls that predate its own spawn batch, exactly like
     statically-built ones; it gets no entry for the ones it does not
     call. *)
  let built = mk_built () in
  let tr = built.Builder.trampolines in
  let gamma_comp =
    Builder.component
      ~exports:
        [
          Builder.export "gamma_fn" (fun _ _ -> 3)
            [ Iface.Branch [ []; [ Iface.Loop [ Iface.Call { sym = "alpha_fn"; ptr_args = [] } ] ] ] ];
        ]
      "GAMMA"
  in
  let fresh = Builder.spawn built [ (gamma_comp, Types.Isolated) ] in
  let gamma = List.assoc "GAMMA" fresh in
  check_bool "guard entry for a called pre-existing export" true
    (Trampoline.has_guard tr gamma "alpha_fn");
  check_bool "no guard entry for an export it does not call" false
    (Trampoline.has_guard tr gamma "beta_fn");
  check_bool "nor for its own" false (Trampoline.has_guard tr gamma "gamma_fn");
  Trampoline.enter_via_guard tr ~caller:gamma "alpha_fn";
  check_int "call to pre-existing export works" 1
    (Monitor.call built.Builder.mon ~caller:gamma (Monitor.import "alpha_fn") [||])

(* Guard tables hold one entry per declared call edge, and grow as
   [extend] adds thunks: a live cubicle whose summary calls one of the
   new symbols gets that one, and any other cubicle gains none; a
   destroyed cubicle's table goes with it. *)
let test_extend_grows_guard_tables () =
  let built = mk_built () in
  let tr = built.Builder.trampolines in
  let mon = built.Builder.mon in
  let alpha = Builder.cid built "ALPHA" and beta = Builder.cid built "BETA" in
  let pages cid = List.length (Monitor.owned_pages mon cid) in
  (* DELTA calls BETA and late_a, which no component exports yet *)
  let delta_comp =
    Builder.component
      ~entries:
        [
          Iface.fundecl "__main"
            [
              Iface.Call { sym = "late_a"; ptr_args = [] };
              Iface.Call { sym = "beta_fn"; ptr_args = [] };
            ];
        ]
      "DELTA"
  in
  let delta = List.assoc "DELTA" (Builder.spawn built [ (delta_comp, Types.Isolated) ]) in
  Alcotest.(check (list string)) "DELTA guards what it calls and is exported" [ "beta_fn" ]
    (List.filter (Trampoline.has_guard tr delta) (Trampoline.syms tr));
  let alpha_entry = Trampoline.guard_addr tr alpha "beta_fn" in
  let alpha_pages = pages alpha and beta_pages = pages beta and delta_pages = pages delta in
  let fresh = [ "late_a"; "late_b"; "late_c" ] in
  Trampoline.extend tr ~syms:fresh;
  List.iter
    (fun s ->
      check_bool ("thunk for " ^ s) true (Trampoline.has_thunk tr s);
      check_bool ("ALPHA not guarding " ^ s) false (Trampoline.has_guard tr alpha s);
      check_bool ("BETA not guarding " ^ s) false (Trampoline.has_guard tr beta s);
      check_bool ("DELTA guards " ^ s ^ " iff it calls it") (s = "late_a")
        (Trampoline.has_guard tr delta s))
    fresh;
  check_int "ALPHA keeps its entry" alpha_entry (Trampoline.guard_addr tr alpha "beta_fn");
  check_int "ALPHA, which calls none of them, gets no guard page" alpha_pages (pages alpha);
  check_int "BETA, which calls nothing, gets no guard page" beta_pages (pages beta);
  check_int "DELTA's new entry takes one guard page" (delta_pages + 1) (pages delta);
  Trampoline.enter_via_guard tr ~caller:delta "late_a";
  check_int "ALPHA: one entry per edge" 1 (Trampoline.guard_entries tr alpha);
  check_int "DELTA: one entry per edge" 2 (Trampoline.guard_entries tr delta);
  check_bool "entries are per cubicle" true
    (Trampoline.guard_addr tr delta "beta_fn" <> Trampoline.guard_addr tr alpha "beta_fn");
  check_bool "unknown symbol has no guard" false (Trampoline.has_guard tr alpha "never_exported");
  (* Tearing DELTA down through the monitor alone drops everything the
     builder and the trampolines knew about it: a successor spawned
     into the recycled cid inherits none of it. *)
  Monitor.destroy_cubicle mon delta;
  check_bool "destroyed cubicle has no guards" false
    (List.exists (Trampoline.has_guard tr delta) (Trampoline.syms tr));
  check_int "nor any entry" 0 (Trampoline.guard_entries tr delta);
  Deny.check "name gone" (No_cubicle_named "DELTA") (fun () -> Builder.cid built "DELTA");
  let gamma_comp =
    Builder.component
      ~exports:
        [
          Builder.export "gamma_fn" (fun _ _ -> 3)
            [ Iface.Call { sym = "alpha_fn"; ptr_args = [] } ];
        ]
      "GAMMA"
  in
  let gamma = List.assoc "GAMMA" (Builder.spawn built [ (gamma_comp, Types.Isolated) ]) in
  check_int "GAMMA reuses DELTA's cid" delta gamma;
  Alcotest.(check (list string)) "live" [ "ALPHA"; "BETA"; "GAMMA" ]
    (List.map (fun (name, _, _) -> name) (Builder.live built));
  Alcotest.(check (list string)) "analysed"
    [ "ALPHA"; "BETA"; "GAMMA" ]
    (List.map (fun (c : Analysis.Ir.comp) -> c.name) (Analysis.Ir.of_built built).comps);
  Alcotest.(check (list string)) "GAMMA guards only its own call" [ "alpha_fn" ]
    (List.filter (Trampoline.has_guard tr gamma) (Trampoline.syms tr));
  check_bool "guard entry on GAMMA's own page" true
    (Monitor.page_owner mon (Hw.Addr.page_of (Trampoline.guard_addr tr gamma "alpha_fn"))
    = Some gamma);
  Trampoline.enter_via_guard tr ~caller:gamma "alpha_fn";
  Monitor.destroy_cubicle mon gamma;
  check_bool "destroyed successor has no guards" false
    (List.exists (Trampoline.has_guard tr gamma) (Trampoline.syms tr))

let test_destroy_full_slot_reuse () =
  (* churn: create and destroy cubicles repeatedly without exhausting
     the 14 keys *)
  let mon = Monitor.create ~protection:Types.Full () in
  for round = 1 to 40 do
    let cid =
      Monitor.create_cubicle mon
        ~name:(Printf.sprintf "EPHEMERAL%d" round)
        ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
    in
    Monitor.destroy_cubicle mon cid
  done;
  check_bool "still boots another" true
    (Monitor.create_cubicle mon ~name:"FINAL" ~kind:Types.Isolated ~heap_pages:2
       ~stack_pages:1
    > 0)

let test_destroy_monitor_rejected () =
  let mon, foo, _ = mk_system () in
  Deny.check "monitor protected" Destroy_monitor (fun () ->
      Monitor.destroy_cubicle mon Monitor.monitor_cid);
  (* Bad cids: negative, at the monitor's cubicle limit, and
     destroyed. Each is a [No_cubicle] denial naming the cid, never an
     [Invalid_argument], and changes no cubicle. *)
  let gone =
    Monitor.create_cubicle mon ~name:"GONE" ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1
  in
  Monitor.destroy_cubicle mon gone;
  let wid = Api.window_init (Monitor.ctx_for mon foo) ~klass:Mm.Page_meta.Heap in
  let live () = (Monitor.ncubicles mon, Monitor.live_cids mon) in
  let before = live () in
  List.iter
    (fun cid ->
      let refused what f = Deny.check what (No_cubicle cid) f in
      refused "cubicle_name" (fun () -> ignore (Monitor.cubicle_name mon cid));
      refused "window_open peer" (fun () -> Monitor.window_open mon foo wid cid);
      refused "destroy_cubicle" (fun () -> Monitor.destroy_cubicle mon cid);
      check_bool "cubicles unchanged" true (live () = before))
    [ -1; Monitor.max_cubicles; gone ]

(* --- denials ------------------------------------------------------------------------ *)

(* The rule a denial names. Exhaustive on purpose: a new constructor
   does not compile until it has a row in [test_denial_table]. *)
let rule : Types.denial -> int = function
  | No_cubicle _ -> 0
  | No_cubicle_named _ -> 1
  | Duplicate_cubicle _ -> 2
  | Too_many_cubicles -> 3
  | Out_of_keys _ -> 4
  | Destroy_monitor -> 5
  | Destroy_running -> 6
  | Duplicate_symbol _ -> 7
  | Unresolved_symbol _ -> 8
  | No_thunk _ -> 9
  | No_guard _ -> 10
  | Forbidden_code _ -> 11
  | Foreign_free _ -> 12
  | Run_not_owned _ -> 13
  | Not_allocation_base _ -> 14
  | Bad_range_size _ -> 15
  | Foreign_page _ -> 16
  | Unowned_page _ -> 17
  | Wrong_class _ -> 18
  | Empty_batch _ -> 19
  | Window_to_self _ -> 20
  | Forward_to_owner _ -> 21
  | Not_open_for_forwarder _ -> 22
  | Dedicated_virtualised -> 23
  | Descriptors_full _ -> 24
  | No_window _ -> 25
  | Window_destroyed _ -> 26
  | No_range_at _ -> 27

(* Each rule raised once through a public path. The expected text is
   the message the core raised before its refusals were typed, format
   string copied verbatim; [Forbidden_code] replaces an exception that
   carried no message. *)
let test_denial_table () =
  let mon, foo, bar = mk_system () in
  let baz = Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1 in
  let ctx = Monitor.ctx_for mon foo and bar_ctx = Monitor.ctx_for mon bar in
  let buf = Api.malloc_page_aligned ctx 4096 in
  let bar_buf = Monitor.malloc mon bar 64 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:4096;
  let stack_wid = Api.window_init ctx ~klass:Mm.Page_meta.Stack in
  let run_base = Monitor.alloc_pages mon foo 2 ~kind:Mm.Page_meta.Heap in
  let peer_base = Monitor.alloc_pages mon bar 1 ~kind:Mm.Page_meta.Heap in
  let touch = { Monitor.sym = "foo_touch"; fn = (fun _ _ -> 0); stack_bytes = 0 } in
  Monitor.register_exports mon foo [ touch ];
  let tbl = Window.create_table ~owner:1 ~ncubicles:8 ~index:(Window.create_index 64) in
  let dead = Window.init tbl ~klass:Mm.Page_meta.Heap in
  Window.destroy tbl dead;
  let built =
    Builder.build
      (Monitor.create ~protection:Types.Full ())
      [ (Builder.component ~exports:[ Builder.export "alpha_fn" (fun _ _ -> 1) [] ] "ALPHA",
         Types.Isolated) ]
  in
  let tr = built.Builder.trampolines and alpha = Builder.cid built "ALPHA" in
  let isolated ?virtualise n =
    let m = Monitor.create ?virtualise ~protection:Types.Full () in
    ( m,
      List.init n (fun i ->
          Monitor.create_cubicle m ~name:(Printf.sprintf "C%d" i) ~kind:Types.Isolated
            ~heap_pages:2 ~stack_pages:1) )
  in
  (* a system whose 14 isolated tags are all taken *)
  let full, cs = isolated 14 in
  let full_ctx = Monitor.ctx_for full (List.hd cs) in
  let full_wid = Api.window_init full_ctx ~klass:Mm.Page_meta.Heap in
  let virt, vs = isolated ~virtualise:true 2 in
  let virt_ctx = Monitor.ctx_for virt (List.hd vs) in
  let virt_wid = Api.window_init virt_ctx ~klass:Mm.Page_meta.Heap in
  let crowded = Monitor.create ~protection:Types.Full () in
  let page = Hw.Addr.page_of and sp = Printf.sprintf in
  let rows =
    [
      (sp "no cubicle with id %d" 99, fun () -> ignore (Monitor.cubicle_name mon 99));
      (sp "no cubicle named %s" "NOPE", fun () -> ignore (Monitor.lookup_cubicle mon "NOPE"));
      ( sp "cubicle %s already exists" "FOO",
        fun () ->
          ignore
            (Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:1
               ~stack_pages:1) );
      ( "too many cubicles",
        fun () ->
          for i = 1 to Monitor.max_cubicles do
            ignore
              (Monitor.create_cubicle crowded ~name:(sp "S%d" i) ~kind:Types.Shared
                 ~heap_pages:0 ~stack_pages:0)
          done );
      ( "out of MPK protection keys (15 in use); enable tag virtualisation (libmpk-style) to \
         run more isolated cubicles",
        fun () ->
          ignore
            (Monitor.create_cubicle full ~name:"C15" ~kind:Types.Isolated ~heap_pages:1
               ~stack_pages:1) );
      ( "out of MPK protection keys: window-specific tags consume one tag per shared buffer \
         and exhaust the 16 keys quickly (paper §5.6)",
        fun () -> Api.window_open_dedicated full_ctx full_wid (List.nth cs 1) );
      ("cannot destroy the monitor", fun () -> Monitor.destroy_cubicle mon Monitor.monitor_cid);
      ( "cannot destroy the executing cubicle",
        fun () -> Monitor.run_as mon foo (fun () -> Monitor.destroy_cubicle mon foo) );
      ( sp "duplicate export symbol %s" "foo_touch",
        fun () -> Monitor.register_exports mon bar [ touch ] );
      ( sp "cross-cubicle call to unresolved symbol %s (CFI)" "nope",
        fun () -> ignore (Monitor.call mon ~caller:foo (Monitor.import "nope") [||]) );
      ( sp "no trampoline thunk for symbol %s" "nope",
        fun () -> ignore (Trampoline.thunk_addr tr "nope") );
      ( sp "no guard entry for cubicle %d, symbol %s" alpha "nope",
        fun () -> ignore (Trampoline.guard_addr tr alpha "nope") );
      ( "image EVIL: forbidden code at wrpkru@1",
        fun () ->
          ignore
            (Loader.load mon
               {
                 Loader.img_name = "EVIL";
                 code = Hw.Instr.assemble [ Nop; Wrpkru; Ret ];
                 rodata = Bytes.empty;
                 data = Bytes.empty;
                 signed = false;
               }
               ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[]) );
      ( sp "cubicle %s: free of foreign pointer 0x%x" "FOO" bar_buf,
        fun () -> Monitor.free mon foo bar_buf );
      ( sp "free_pages: cubicle %d does not own 0x%x" foo peer_base,
        fun () -> Monitor.free_pages mon foo peer_base );
      ( sp "free_pages: 0x%x is not an allocation base" (run_base + Hw.Addr.page_size),
        fun () -> Monitor.free_pages mon foo (run_base + Hw.Addr.page_size) );
      ( sp "window %d: non-positive range size %d" wid 0,
        fun () -> Api.window_add ctx wid ~ptr:buf ~size:0 );
      ( sp "window_add: page %d belongs to cubicle %d, not %d" (page bar_buf) bar foo,
        fun () -> Api.window_add ctx wid ~ptr:bar_buf ~size:16 );
      (sp "window_add: page %d is unowned" 0, fun () -> Api.window_add ctx wid ~ptr:0x10 ~size:16);
      ( sp "window_add: page %d is %s data but window %d holds %s data" (page buf) "heap"
          stack_wid "stack",
        fun () -> Api.window_add ctx stack_wid ~ptr:buf ~size:16 );
      ("window_add_ranges: empty range list", fun () -> Api.window_add_ranges ctx wid []);
      ("window_open_many: empty peer list", fun () -> Api.window_open_many ctx wid []);
      ("window_open: cannot open a window to oneself", fun () -> Api.window_open ctx wid foo);
      ( "window_open_dedicated: cannot open to oneself",
        fun () -> Api.window_open_dedicated ctx wid foo );
      ( sp "window_forward: cubicle %d already owns window %d" foo wid,
        fun () -> Api.window_forward bar_ctx ~owner:foo wid foo );
      ( sp "window_forward: window %d of cubicle %d is not open for forwarder %d" wid foo bar,
        fun () -> Api.window_forward bar_ctx ~owner:foo wid baz );
      ( "window-specific tags are not supported with tag virtualisation",
        fun () -> Api.window_open_dedicated virt_ctx virt_wid (List.nth vs 1) );
      ( sp "cubicle %d: %s window descriptor array is full (%d entries); extend it first" foo
          "heap" 8,
        fun () ->
          for _ = 1 to 8 do
            ignore (Api.window_init ctx ~klass:Mm.Page_meta.Heap)
          done );
      ( sp "window %d not found in cubicle %d" 999 foo,
        fun () -> Monitor.window_open mon foo 999 bar );
      ( sp "window %d was destroyed" dead.Window.wid,
        fun () -> Window.add_range tbl dead ~ptr:0x1000 ~size:64 );
      ( sp "window %d: no range starts at 0x%x" wid (buf + 8),
        fun () -> Monitor.window_downgrade mon foo wid ~ptr:(buf + 8) );
    ]
  in
  let rules =
    List.map
      (fun (expected, f) ->
        match Deny.raised f with
        | None -> Alcotest.failf "not refused: %s" expected
        | Some d ->
            Alcotest.(check string) expected expected (Types.denial_message d);
            rule d)
      rows
  in
  Alcotest.(check (list int)) "every rule raised" (List.init 28 Fun.id)
    (List.sort_uniq compare rules)

(* --- properties -------------------------------------------------------------------- *)

let prop_window_acl =
  (* For any sequence of open/close operations, is_open_for reflects
     exactly the most recent operation per cubicle. *)
  QCheck.Test.make ~name:"window: ACL reflects last open/close per cubicle"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (pair bool (int_bound 7)))
    (fun script ->
      let tbl = Window.create_table ~owner:0 ~ncubicles:8 ~index:(Window.create_index 64) in
      let w = Window.init tbl ~klass:Mm.Page_meta.Heap in
      let expect = Array.make 8 false in
      List.iter
        (fun (open_, cid) ->
          if open_ then (Window.open_for w cid; expect.(cid) <- true)
          else (Window.close_for w cid; expect.(cid) <- false))
        script;
      Array.for_all Fun.id
        (Array.mapi (fun cid e -> Window.is_open_for w cid = e) expect))

let prop_scan_catches_planted =
  (* Planting a forbidden sequence at a random offset in random bytes is
     always caught. *)
  QCheck.Test.make ~name:"scan: planted forbidden sequence always found"
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 4 200)) (int_bound 199))
    (fun (s, pos) ->
      QCheck.assume (pos + 3 <= String.length s);
      let b = Bytes.of_string s in
      Bytes.blit_string "\x0F\x01\xEF" 0 b pos 3;
      List.exists (fun h -> h.Hw.Instr.offset = pos && h.what = "wrpkru")
        (Hw.Instr.scan_forbidden b))

let prop_search_index_matches_linear =
  (* Differential test for the page-indexed ACL lookup: after any
     sequence of window create / grant / revoke / destroy operations,
     [search] must agree with the original linear scan on both the
     winning wid and the charged "descriptors inspected" count, and
     [covers] must agree with a per-byte [contains] sweep. *)
  QCheck.Test.make ~count:300 ~name:"window: page index = linear search (wid & inspected)"
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (quad (int_bound 3) (int_bound 7) (int_bound 31) (int_bound 8)))
    (fun script ->
      let tbl = Window.create_table ~owner:1 ~ncubicles:4 ~index:(Window.create_index 64) in
      let windows = ref [] in
      let pick i =
        match !windows with [] -> None | l -> Some (List.nth l (i mod List.length l))
      in
      List.iter
        (fun (op, wi, page, sz) ->
          (* sub-page granularity on purpose: ranges share pages, span
             several, start mid-page *)
          let ptr = 0x1000 + (page * 1024) and size = 1 + (sz * 700) in
          let ignoring f = try f () with Types.Denied _ -> () in
          match op with
          | 0 ->
              if List.length !windows < 12 then
                ignoring (fun () ->
                    windows := Window.init tbl ~klass:Mm.Page_meta.Heap :: !windows)
          | 1 -> (
              match pick wi with
              | Some w -> ignoring (fun () -> Window.add_range tbl w ~ptr ~size)
              | None -> ())
          | 2 -> (
              match pick wi with
              | Some w -> ignoring (fun () -> Window.remove_range tbl w ~ptr)
              | None -> ())
          | _ -> (
              match pick wi with
              | Some w -> ignoring (fun () -> Window.destroy tbl w)
              | None -> ()))
        script;
      let norm = Option.map (fun ((w : Window.t), n) -> (w.Window.wid, n)) in
      let searches_agree = ref true in
      for a = 0 to 100 do
        let addr = 0x1000 + (a * 512) in
        if
          norm (Oracle.indexed_search tbl ~klass:Mm.Page_meta.Heap ~addr)
          <> norm (Oracle.window_search tbl ~klass:Mm.Page_meta.Heap ~addr)
        then searches_agree := false
      done;
      let naive_covers w ~ptr ~size =
        let rec go a = a >= ptr + size || (Window.contains w a && go (a + 1)) in
        go ptr
      in
      let covers_agree =
        List.for_all
          (fun (w : Window.t) ->
            List.for_all
              (fun (ptr, size) -> Window.covers w ~ptr ~size = naive_covers w ~ptr ~size)
              [ (0x1000, 1); (0x1400, 512); (0x2000, 3000); (0x5000, 1024) ])
          (Window.live_windows tbl)
      in
      !searches_agree && covers_agree)

(* State machine over the monitor's window and page services, three
   isolated cubicles, against [Oracle.Grants]. Each step is (op, a, b,
   c): [a] picks the acting cubicle, [b] one of its three newest windows
   (so grants pile up on few windows and their ranges overlap) or a run
   size, [c] where an address or peer comes from. Addresses are drawn from the
   cubicle's own page runs and initial heap (valid window memory), its
   stack and other cubicles' runs (invalid), and [free_pages] is also
   handed interior pages, stacks and heap runs: it must accept exactly
   the caller's own allocation bases. After every step each grantee's
   grant index, [is_open_for], [search] against [Oracle.window_search]
   and the free page count are checked. *)
let prop_window_page_state_machine =
  QCheck.Test.make ~count:300 ~name:"monitor: window and page bookkeeping = model"
    QCheck.(
      list_of_size (Gen.int_range 1 150)
        (quad (int_bound 9) (int_bound 15) (int_bound 15) (int_bound 15)))
    (fun script ->
      let module G = Oracle.Grants in
      let page_size = Hw.Addr.page_size in
      let mon = Monitor.create ~protection:Types.Full () in
      let cids =
        Array.init 3 (fun i ->
            Monitor.create_cubicle mon ~name:(Printf.sprintf "C%d" i) ~kind:Types.Isolated
              ~heap_pages:4 ~stack_pages:2)
      in
      let heap_pages cid =
        List.filter
          (fun p -> Mm.Page_meta.kind (Monitor.meta mon) p = Some Mm.Page_meta.Heap)
          (Monitor.owned_pages mon cid)
      in
      let heaps = Array.map heap_pages cids in
      let model = G.create ~free_pages:(Monitor.free_page_count mon) in
      let nth l i = match l with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
      let windows_of cid =
        List.filteri (fun i _ -> i < 3)
          (List.filter (fun (w : G.window) -> w.owner = cid) model.windows)
      in
      let outcome f = match f () with () -> true | exception Types.Denied _ -> false in
      let step (op, a, b, c) =
        let cid = cids.(a mod 3) in
        let peer = cids.(c mod 3) in
        let other = cids.((a + 1 + (c mod 2)) mod 3) in
        (* a page-sized span inside the cubicle's runs or heap, or
           [None] when the source is empty *)
        let run_addr owner k =
          match nth (G.runs_of model owner) k with
          | None -> None
          | Some (_, page, n) -> Some (Hw.Addr.base_of_page (page + (k mod n)))
        in
        match op with
        | 0 -> (
            (* the heap descriptor array holds [capacity] live windows *)
            let live = List.filter (fun (w : G.window) -> w.owner = cid && w.alive) model.windows in
            let full =
              List.length live >= Window.capacity (Monitor.windows_of mon cid) Mm.Page_meta.Heap
            in
            match Monitor.window_init mon cid ~klass:Mm.Page_meta.Heap with
            | wid ->
                G.init model ~owner:cid ~wid;
                if full then Error "window_init" else Ok ()
            | exception Types.Denied (Descriptors_full _) ->
                if full then Ok () else Error "window_init")
        | 1 -> (
            match nth (windows_of cid) b with
            | None -> Ok ()
            | Some w ->
                let src =
                  match c mod 4 with
                  | 0 -> Option.map (fun p -> (p, true)) (run_addr cid b)
                  | 1 ->
                      Option.map
                        (fun p -> (Hw.Addr.base_of_page p, true))
                        (nth heaps.(a mod 3) b)
                  | 2 -> Some (Monitor.stack_base mon cid, false)
                  | _ -> Option.map (fun p -> (p, false)) (run_addr other b)
                in
                Option.fold src ~none:(Ok ()) ~some:(fun (page, valid) ->
                    (* sub-page spans that stay inside the page *)
                    let ptr = page + (512 * (c / 4)) in
                    let size = 1 + (b * 97 mod (page + page_size - ptr)) in
                    let ok = outcome (fun () -> Monitor.window_add mon cid w.wid ~ptr ~size) in
                    if ok <> (valid && w.alive) then Error "window_add"
                    else (
                      if ok then G.add w ~ptr ~size;
                      Ok ())))
        | 2 | 3 -> (
            match nth (windows_of cid) b with
            | None -> Ok ()
            | Some w ->
                if op = 2 then begin
                  let ok = outcome (fun () -> Monitor.window_open mon cid w.wid peer) in
                  if ok <> (w.alive && peer <> cid) then Error "window_open"
                  else (
                    if ok then G.open_for w peer;
                    Ok ())
                end
                else
                  let ok = outcome (fun () -> Monitor.window_close mon cid w.wid peer) in
                  if ok <> w.alive then Error "window_close"
                  else (
                    if ok then G.close_for w peer;
                    Ok ()))
        | 4 | 6 -> (
            match nth (windows_of cid) b with
            | None -> Ok ()
            | Some w ->
                let f = if op = 4 then Monitor.window_close_all else Monitor.window_destroy in
                let ok = outcome (fun () -> f mon cid w.wid) in
                if ok <> w.alive then Error "window_close_all/destroy"
                else (
                  if ok then (if op = 4 then G.close_all w else G.destroy w);
                  Ok ()))
        | 5 -> (
            match nth (windows_of cid) b with
            | None -> Ok ()
            | Some w ->
                let ptr =
                  match nth w.ranges c with
                  | Some (ptr, _) when c mod 2 = 0 -> ptr
                  | _ -> Monitor.stack_base mon cid + 1
                in
                let ok = outcome (fun () -> Monitor.window_remove mon cid w.wid ~ptr) in
                let expect = w.alive && G.remove w ~ptr in
                if ok <> expect then Error "window_remove" else Ok ())
        | 7 ->
            let n = 1 + (b mod 3) in
            let base = Monitor.alloc_pages mon cid n ~kind:Mm.Page_meta.Heap in
            G.alloc model ~owner:cid ~page:(Hw.Addr.page_of base) ~n;
            Ok ()
        | _ ->
            let own = G.runs_of model cid in
            let addr =
              match c mod 5 with
              | 0 -> Option.map (fun (_, p, _) -> Hw.Addr.base_of_page p) (nth own b)
              | 1 ->
                  Option.map
                    (fun (_, p, _) -> Hw.Addr.base_of_page p)
                    (nth (G.runs_of model other) b)
              | 2 ->
                  Option.bind (nth own b) (fun (_, p, n) ->
                      if n > 1 then Some (Hw.Addr.base_of_page (p + 1 + (b mod (n - 1))))
                      else None)
              | 3 -> Some (Monitor.stack_base mon cid)
              | _ -> Option.map Hw.Addr.base_of_page (nth heaps.(a mod 3) 0)
            in
            Option.fold addr ~none:(Ok ()) ~some:(fun addr ->
                let ok = outcome (fun () -> Monitor.free_pages mon cid addr) in
                let expect = G.free model ~owner:cid ~page:(Hw.Addr.page_of addr) in
                if ok <> expect then Error (Printf.sprintf "free_pages 0x%x" addr) else Ok ())
      in
      (* addresses worth probing: both ends of every range and run *)
      let probes () =
        List.concat_map
          (fun (w : G.window) ->
            List.concat_map (fun (ptr, size) -> [ ptr; ptr + size - 1; ptr + size ]) w.ranges)
          model.windows
        @ List.concat_map
            (fun (_, p, n) -> [ Hw.Addr.base_of_page p; Hw.Addr.base_of_page (p + n) - 1 ])
            model.runs
      in
      let check () =
        Array.for_all
          (fun cid ->
            let held =
              List.map
                (fun (w : Window.t) -> (w.Window.owner, w.Window.wid))
                (Monitor.grants_held mon cid)
            in
            held = G.open_for_cid model cid
            && List.for_all
                 (fun (w : G.window) ->
                   (not w.alive)
                   || Window.is_open_for (Window.find (Monitor.windows_of mon w.owner) w.wid) cid
                      = List.mem cid w.opened)
                 model.windows
            &&
            let tbl = Monitor.windows_of mon cid in
            let norm = Option.map (fun ((w : Window.t), n) -> (w.Window.wid, n)) in
            List.for_all
              (fun addr ->
                norm (Oracle.indexed_search tbl ~klass:Mm.Page_meta.Heap ~addr)
                = norm (Oracle.window_search tbl ~klass:Mm.Page_meta.Heap ~addr))
              (probes ()))
          cids
        && Monitor.free_page_count mon = model.free_pages
      in
      List.iteri
        (fun i s ->
          match step s with
          | Error what -> QCheck.Test.fail_reportf "step %d: %s disagrees with the model" i what
          | Ok () ->
              if not (check ()) then
                QCheck.Test.fail_reportf "step %d: monitor state differs from the model" i)
        script;
      true)

(* --- copy-free accessors ------------------------------------------------------ *)

(* [Api.read_into] / [write_sub] must be [read_bytes] / [write_bytes]
   with the host copy moved: same cycles, faults and events. Each run
   boots a fresh FOO/BAR pair; FOO owns a two-page buffer (filled with a
   pattern), optionally shared with BAR through a window, and BAR runs
   [access] on it with tracing on. *)
type access_run = {
  cycles : int;
  faults : int;
  events : (int * Telemetry.Event.t) list;
  raised : bool;
  host : string;  (* the host buffer after the access *)
  memory : string;  (* FOO's buffer after the access *)
}

let page = Hw.Addr.page_size

let run_access ~window access =
  let mon, foo, bar = mk_system () in
  let fctx = Monitor.ctx_for mon foo and bctx = Monitor.ctx_for mon bar in
  let buf = Api.malloc_page_aligned fctx (2 * page) in
  Monitor.run_as mon foo (fun () ->
      Api.write_string fctx buf (String.init (2 * page) (fun i -> Char.chr (i land 0xFF))));
  if window then begin
    let wid = Api.window_init fctx ~klass:Mm.Page_meta.Heap in
    Api.window_add fctx wid ~ptr:buf ~size:(2 * page);
    Api.window_open fctx wid bar
  end;
  let bus = Monitor.bus mon and cost = Monitor.cost mon in
  let host = Bytes.make 512 'Z' in
  let c0 = Hw.Cost.cycles cost and f0 = bus.Telemetry.Bus.faults in
  Telemetry.Bus.set_tracing bus true;
  let raised =
    match Monitor.run_as mon bar (fun () -> access bctx buf host) with
    | () -> false
    | exception Hw.Fault.Violation _ -> true
  in
  Telemetry.Bus.set_tracing bus false;
  let cycles = Hw.Cost.cycles cost - c0 and faults = bus.Telemetry.Bus.faults - f0 in
  {
    cycles;
    faults;
    events = List.map (fun (e : Telemetry.Bus.entry) -> (e.at, e.ev)) (Telemetry.Bus.events bus);
    raised;
    host = Bytes.to_string host;
    memory = Bytes.to_string (Hw.Phys_mem.read_bytes (Hw.Cpu.mem (Monitor.cpu mon)) buf (2 * page));
  }

let check_same_run what (a : access_run) (b : access_run) =
  check_int (what ^ ": cycles") a.cycles b.cycles;
  check_int (what ^ ": faults") a.faults b.faults;
  check_bool (what ^ ": events") true (a.events = b.events);
  check_bool (what ^ ": raised") a.raised b.raised;
  Alcotest.(check string) (what ^ ": memory") a.memory b.memory

let has_fault_and_window_access r =
  List.exists (function _, Telemetry.Event.Fault _ -> true | _ -> false) r.events
  && List.exists (function _, Telemetry.Event.Window_access _ -> true | _ -> false) r.events

let accessor_cases = [ ("one page", 100, 300); ("page boundary", page - 200, 500) ]

let test_read_into_matches_read_bytes () =
  List.iter
    (fun (what, off, len) ->
      (* twice: the first access faults and maps, the second hits the TLB *)
      let copied =
        run_access ~window:true (fun ctx buf host ->
            for _ = 1 to 2 do
              Bytes.blit (Api.read_bytes ctx (buf + off) len) 0 host 0 len
            done)
      in
      let direct =
        run_access ~window:true (fun ctx buf host ->
            for _ = 1 to 2 do
              Api.read_into ctx (buf + off) host ~pos:0 ~len
            done)
      in
      check_bool (what ^ ": faulted") true (direct.faults > 0 && has_fault_and_window_access direct);
      check_same_run what copied direct;
      Alcotest.(check string) (what ^ ": bytes") copied.host direct.host)
    accessor_cases

let test_write_sub_matches_write_bytes () =
  List.iter
    (fun (what, off, len) ->
      let src = Bytes.init 600 (fun i -> Char.chr ((7 * i) land 0xFF)) in
      let copied =
        run_access ~window:true (fun ctx buf _ ->
            for _ = 1 to 2 do
              Api.write_bytes ctx (buf + off) (Bytes.sub src 50 len)
            done)
      in
      let direct =
        run_access ~window:true (fun ctx buf _ ->
            for _ = 1 to 2 do
              Api.write_sub ctx (buf + off) src ~pos:50 ~len
            done)
      in
      check_bool (what ^ ": faulted") true (direct.faults > 0 && has_fault_and_window_access direct);
      check_same_run what copied direct)
    accessor_cases

(* Without a window BAR may not touch FOO's buffer: both accessors raise
   exactly like their copying twins, before the host buffer or simulated
   memory changes. *)
let test_denied_access_changes_nothing () =
  let untouched = run_access ~window:false (fun _ _ _ -> ()) in
  let off = page - 200 and len = 500 in
  let copied = run_access ~window:false (fun ctx buf host ->
      Bytes.blit (Api.read_bytes ctx (buf + off) len) 0 host 0 len) in
  let direct = run_access ~window:false (fun ctx buf host ->
      Api.read_into ctx (buf + off) host ~pos:0 ~len) in
  check_bool "read denied" true
    (direct.raised && List.exists (function _, Telemetry.Event.Fault _ -> true | _ -> false) direct.events);
  check_same_run "denied read" copied direct;
  Alcotest.(check string) "host buffer untouched" untouched.host direct.host;
  let src = Bytes.make len 'W' in
  let copied = run_access ~window:false (fun ctx buf _ -> Api.write_bytes ctx (buf + off) src) in
  let direct =
    run_access ~window:false (fun ctx buf _ -> Api.write_sub ctx (buf + off) src ~pos:0 ~len)
  in
  check_bool "write denied" true direct.raised;
  check_same_run "denied write" copied direct;
  Alcotest.(check string) "memory untouched" untouched.memory direct.memory;
  check_bool "bad host range rejected" true
    (match run_access ~window:true (fun ctx buf host -> Api.read_into ctx buf host ~pos:500 ~len:100) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* [Api.check_read] and [Api.check_write] observe, check and charge
   exactly what the copying accessors do and move no byte: the caller
   then reads or stores the range in place (minidb's frame views). The
   store below is that in-place store. Denied, they raise like their
   copying twins. *)
let test_check_matches_copy () =
  List.iter
    (fun (what, off, len) ->
      let copied =
        run_access ~window:true (fun ctx buf _ ->
            for _ = 1 to 2 do
              ignore (Api.read_bytes ctx (buf + off) len)
            done)
      in
      let checked =
        run_access ~window:true (fun ctx buf _ ->
            for _ = 1 to 2 do
              Api.check_read ctx (buf + off) len
            done)
      in
      check_bool (what ^ ": read faulted") true
        (checked.faults > 0 && has_fault_and_window_access checked);
      check_same_run (what ^ " read") copied checked;
      let src = Bytes.init len (fun i -> Char.chr ((5 * i) land 0xFF)) in
      let copied =
        run_access ~window:true (fun ctx buf _ ->
            for _ = 1 to 2 do
              Api.write_sub ctx (buf + off) src ~pos:0 ~len
            done)
      in
      let checked =
        run_access ~window:true (fun ctx buf _ ->
            for _ = 1 to 2 do
              Api.check_write ctx (buf + off) len;
              Hw.Phys_mem.write_sub (Hw.Cpu.mem ctx.Monitor.cpu) (buf + off) src ~pos:0 ~len
            done)
      in
      check_same_run (what ^ " write") copied checked)
    accessor_cases;
  let off = page - 200 and len = 500 in
  let copied = run_access ~window:false (fun ctx buf _ -> ignore (Api.read_bytes ctx (buf + off) len)) in
  let checked = run_access ~window:false (fun ctx buf _ -> Api.check_read ctx (buf + off) len) in
  check_bool "check_read denied" true checked.raised;
  check_same_run "denied check_read" copied checked;
  let copied =
    run_access ~window:false (fun ctx buf _ -> Api.write_bytes ctx (buf + off) (Bytes.make len 'W'))
  in
  let checked = run_access ~window:false (fun ctx buf _ -> Api.check_write ctx (buf + off) len) in
  check_bool "check_write denied" true checked.raised;
  check_same_run "denied check_write" copied checked

(* --- store runs ---------------------------------------------------------------- *)

(* [Api.store_run] must be the [Api.write_u8] loop it stands for. FOO
   owns a three-page buffer and opens its first [granted] pages to BAR
   through a window; BAR first stores one byte to each page of
   [pre_touch] (a page bitmask, granted pages only), then stores [len]
   bytes from [off], one way or the other. A page BAR has not touched
   is still FOO's, so BAR's first store to it is trap-and-mapped; a
   store to a page past the grant is refused. *)
type store_case = {
  tlb : bool;
  traced : bool;
  granted : int;
  pre_touch : int;
  off : int;
  len : int;
  salt : int;
}

let print_store_case c =
  Printf.sprintf "{tlb=%b; traced=%b; granted=%d; pre_touch=%d; off=%d; len=%d; salt=%d}"
    c.tlb c.traced c.granted c.pre_touch c.off c.len c.salt

let gen_store_case =
  QCheck.Gen.(
    let* tlb = bool and* traced = bool and* granted = int_range 0 3 in
    let* pre_touch = int_bound 7 and* off = int_bound ((3 * page) - 1) in
    let* len = oneof [ int_bound 16; int_bound (3 * page) ] and* salt = int_bound 255 in
    return
      {
        tlb;
        traced;
        granted;
        pre_touch = pre_touch land ((1 lsl granted) - 1);
        off;
        len = min len ((3 * page) - off);
        salt;
      })

type store_obs = {
  s_memory : string;
  s_cycles : int;
  s_attrib : (int * int array) list;
  s_hits : int;
  s_misses : int;
  s_faults : int;
  s_events : (int * Telemetry.Event.t) list;
  s_raised : bool;
}

let run_stores (c : store_case) ~as_run =
  let mon, foo, bar = mk_system () in
  let cpu = Monitor.cpu mon in
  Hw.Cpu.set_tlb_enabled cpu c.tlb;
  let fctx = Monitor.ctx_for mon foo and bctx = Monitor.ctx_for mon bar in
  let buf = Api.malloc_page_aligned fctx (3 * page) in
  if c.granted > 0 then begin
    let wid = Api.window_init fctx ~klass:Mm.Page_meta.Heap in
    Api.window_add fctx wid ~ptr:buf ~size:(c.granted * page);
    Api.window_open fctx wid bar
  end;
  let src = Bytes.init (3 * page) (fun i -> Char.chr (((i * 7) + c.salt) land 0xFF)) in
  let bus = Monitor.bus mon in
  Telemetry.Bus.set_tracing bus c.traced;
  let raised =
    match
      Monitor.run_as mon bar (fun () ->
          for p = 0 to 2 do
            if c.pre_touch land (1 lsl p) <> 0 then
              Api.write_u8 bctx (buf + (p * page) + 5) 1
          done;
          if as_run then Api.store_run bctx (buf + c.off) src ~pos:c.off ~len:c.len
          else
            for j = 0 to c.len - 1 do
              Api.write_u8 bctx (buf + c.off + j) (Bytes.get_uint8 src (c.off + j))
            done)
    with
    | () -> false
    | exception Hw.Fault.Violation _ -> true
  in
  let tlb = Hw.Cpu.tlb cpu in
  {
    s_memory = Bytes.to_string (Hw.Phys_mem.read_bytes (Hw.Cpu.mem cpu) buf (3 * page));
    s_cycles = Hw.Cost.cycles (Monitor.cost mon);
    s_attrib = Telemetry.Attrib.rows (Monitor.cost mon).Hw.Cost.attrib;
    s_hits = Hw.Tlb.hits tlb;
    s_misses = Hw.Tlb.misses tlb;
    s_faults = Hw.Cpu.fault_count cpu;
    s_events =
      List.map (fun (e : Telemetry.Bus.entry) -> (e.at, e.ev)) (Telemetry.Bus.events bus);
    s_raised = raised;
  }

(* What a store run does differently from the loop, if anything. *)
let store_diff c =
  let loop = run_stores c ~as_run:false and run = run_stores c ~as_run:true in
  if run.s_memory <> loop.s_memory then Some "memory"
  else if run.s_cycles <> loop.s_cycles then
    Some (Printf.sprintf "cycles: loop %d, run %d" loop.s_cycles run.s_cycles)
  else if run.s_attrib <> loop.s_attrib then Some "attribution rows"
  else if (run.s_hits, run.s_misses) <> (loop.s_hits, loop.s_misses) then
    Some
      (Printf.sprintf "TLB hits/misses: loop %d/%d, run %d/%d" loop.s_hits loop.s_misses
         run.s_hits run.s_misses)
  else if run.s_faults <> loop.s_faults then Some "fault count"
  else if run.s_raised <> loop.s_raised then Some "raised"
  else if run.s_events <> loop.s_events then Some "event list"
  else None

let prop_store_run_is_the_loop =
  QCheck.Test.make ~count:300 ~name:"store_run: = the write_u8 loop"
    (QCheck.make ~print:print_store_case gen_store_case)
    (fun c ->
      match store_diff c with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differs" what)

(* The shared window ACL index against the paper's linear scan, across
   owners. Four cubicle slots run random scripts of window services,
   page allocation and release (a freed page goes to whichever slot
   allocates next, possibly as another class, while the old owner's
   windows still cover it), teardown and respawn (which recycles the
   cid). Each step is (op, a, b, c): [a] picks the slot, [b] and [c]
   the window, peer, class or span. After every step, for every live
   table and class, [search] and [inspected] must equal
   [Oracle.window_search] at both ends of every indexed range, and the
   index must list only live windows of live cubicles' tables. *)
let prop_shared_index_matches_linear =
  QCheck.Test.make ~count:200
    ~name:"window: shared page index = linear search, across owners"
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (quad (int_bound 9) (int_bound 3) (int_bound 15) (int_bound 15)))
    (fun script ->
      let mon = Monitor.create ~mem_bytes:(4 * 1024 * 1024) ~protection:Types.Full () in
      let npages = Hw.Cpu.npages (Monitor.cpu mon) in
      let meta = Monitor.meta mon in
      let slot_name i = Printf.sprintf "S%d" i in
      let spawn i =
        Some
          (Monitor.create_cubicle mon ~name:(slot_name i) ~kind:Types.Isolated ~heap_pages:2
             ~stack_pages:1)
      in
      let slots = Array.init 4 spawn in
      (* each slot's [alloc_pages] bases, the runs [free_pages] takes *)
      let runs = Array.make 4 [] in
      let live () = List.filter_map Fun.id (Array.to_list slots) in
      let klass_of n = if n mod 2 = 0 then Mm.Page_meta.Heap else Mm.Page_meta.Stack in
      let nth l i = match l with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
      let denied f = try f () with Types.Denied _ -> () in
      let step (op, a, b, c) =
        match slots.(a) with
        | None -> if op >= 8 then slots.(a) <- spawn a
        | Some cid -> (
            let tbl = Monitor.windows_of mon cid in
            let window () = nth (Window.live_windows tbl) b in
            let peer () = nth (List.filter (fun p -> p <> cid) (live ())) c in
            match op with
            | 0 ->
                denied (fun () -> ignore (Monitor.window_init mon cid ~klass:(klass_of c)))
            | 1 ->
                Option.iter
                  (fun (w : Window.t) ->
                    let pages =
                      List.filter
                        (fun p -> Mm.Page_meta.kind meta p = Some w.Window.klass)
                        (Monitor.owned_pages mon cid)
                    in
                    Option.iter
                      (fun p ->
                        let ptr = Hw.Addr.base_of_page p + (c * 256) in
                        let size = 1 + (b * 1500) in
                        denied (fun () -> Monitor.window_add mon cid w.Window.wid ~ptr ~size))
                      (nth pages c))
                  (window ())
            | 2 ->
                Option.iter
                  (fun (w : Window.t) ->
                    Option.iter
                      (fun (r : Window.range) ->
                        Monitor.window_remove mon cid w.Window.wid ~ptr:r.Window.ptr)
                      (nth w.Window.ranges c))
                  (window ())
            | 3 | 4 ->
                Option.iter
                  (fun (w : Window.t) ->
                    Option.iter
                      (fun p ->
                        if op = 3 then Monitor.window_open mon cid w.Window.wid p
                        else Monitor.window_close mon cid w.Window.wid p)
                      (peer ()))
                  (window ())
            | 5 ->
                Option.iter
                  (fun (w : Window.t) -> Monitor.window_destroy mon cid w.Window.wid)
                  (window ())
            | 6 ->
                let base = Monitor.alloc_pages mon cid (1 + (b mod 2)) ~kind:(klass_of c) in
                runs.(a) <- base :: runs.(a)
            | 7 ->
                Option.iter
                  (fun base ->
                    Monitor.free_pages mon cid base;
                    runs.(a) <- List.filter (( <> ) base) runs.(a))
                  (nth runs.(a) c)
            | _ ->
                Monitor.destroy_cubicle mon cid;
                slots.(a) <- None;
                runs.(a) <- [])
      in
      let indexed p = Window.indexed (Monitor.windows_of mon Monitor.monitor_cid) ~page:p in
      let stale () =
        let found = ref None in
        for p = 0 to npages - 1 do
          List.iter
            (fun (w : Window.t) ->
              let in_table =
                List.mem w.Window.owner (Monitor.live_cids mon)
                && List.memq w (Window.live_windows (Monitor.windows_of mon w.Window.owner))
              in
              if not in_table then found := Some (p, w.Window.owner, w.Window.wid))
            (indexed p)
        done;
        !found
      in
      let probes () =
        let acc = ref [] in
        for p = 0 to npages - 1 do
          List.iter
            (fun (w : Window.t) ->
              List.iter
                (fun (r : Window.range) ->
                  acc := r.Window.ptr :: (r.Window.ptr + r.Window.size - 1) :: !acc)
                w.Window.ranges)
            (indexed p)
        done;
        List.sort_uniq compare !acc
      in
      let norm = Option.map (fun ((w : Window.t), n) -> (w.Window.owner, w.Window.wid, n)) in
      let disagreement () =
        let addrs = probes () in
        List.find_map
          (fun cid ->
            let tbl = Monitor.windows_of mon cid in
            List.find_map
              (fun klass ->
                List.find_map
                  (fun addr ->
                    let got = norm (Oracle.indexed_search tbl ~klass ~addr)
                    and want = norm (Oracle.window_search tbl ~klass ~addr) in
                    if got <> want then Some (cid, addr) else None)
                  addrs)
              [ Mm.Page_meta.Heap; Mm.Page_meta.Stack ])
          (live ())
      in
      List.iteri
        (fun i s ->
          (try step s with Types.Denied _ -> ());
          (match stale () with
          | Some (p, owner, wid) ->
              QCheck.Test.fail_reportf "step %d: page %d lists window %d of dead table %d" i p
                wid owner
          | None -> ());
          match disagreement () with
          | Some (cid, addr) ->
              QCheck.Test.fail_reportf
                "step %d: cubicle %d's search at 0x%x differs from the scan" i cid addr
          | None -> ())
        script;
      true)

(* The cases the property must reach, pinned: a run over all three
   pages whose first store on each granted page is trap-and-mapped and
   whose third page is refused, TLB on and off, traced and not. *)
let test_store_run_cases () =
  List.iter
    (fun (tlb, traced) ->
      let c =
        {
          tlb;
          traced;
          granted = 2;
          pre_touch = 0;
          off = page - 10;
          len = (2 * page) + 10;
          salt = 3;
        }
      in
      let what = Printf.sprintf "tlb %b, traced %b" tlb traced in
      let run = run_stores c ~as_run:true in
      check_bool (what ^ ": refused on the third page") true run.s_raised;
      check_int (what ^ ": two trap-and-maps, one refusal") 3 run.s_faults;
      Alcotest.(check (option string)) (what ^ ": same as the loop") None (store_diff c))
    [ (true, false); (false, false); (true, true); (false, true) ]

(* Guard entries come only from declared call edges. Random scripts
   spawn and tear down components over six symbols: random exports
   (only symbols no live cubicle exports), random Call/Branch/Loop
   summaries, some components with an empty interface and some shared
   or trusted ones. A model kept from the script alone says which
   symbols have a thunk (every export of an isolated or trusted
   component, for good) and which symbols each cubicle's summary calls
   (walking the generated trees, not [Iface.calls]). After every step,
   for every live isolated cubicle [c] and symbol [s]: [has_guard c s]
   iff [s] has a thunk and [c] calls it; [enter_via_guard] succeeds on
   each of those edges; each entry sits on a page [c] owns; and [c]
   holds no other entry, so an empty interface holds none. *)
type gtree = G_call of int | G_branch of gtree list list | G_loop of gtree list | G_alloc

type gcomp = {
  g_kind : int;  (* 0: shared, 1: trusted, otherwise isolated *)
  g_exports : (int * gtree list) list;  (* symbol, summary body *)
  g_entry : gtree list option;  (* a [__main] entry *)
}

type gop = G_spawn of gcomp list | G_teardown of int

let gsyms = Array.init 6 (Printf.sprintf "s%d")

let gen_gtree =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then frequency [ (4, map (fun i -> G_call i) (int_bound 5)); (1, return G_alloc) ]
           else
             frequency
               [
                 (3, map (fun i -> G_call i) (int_bound 5));
                 (1, return G_alloc);
                 ( 2,
                   map (fun arms -> G_branch arms)
                     (list_size (int_range 1 3) (list_size (int_bound 2) (self (n - 1)))) );
                 (2, map (fun b -> G_loop b) (list_size (int_range 1 2) (self (n - 1))));
               ]))

let gen_gcomp =
  QCheck.Gen.(
    let body = list_size (int_bound 2) gen_gtree in
    map3
      (fun g_kind exports entry ->
        { g_kind; g_exports = List.sort_uniq (fun (a, _) (b, _) -> compare a b) exports; g_entry = entry })
      (int_bound 9)
      (frequency [ (1, return []); (3, list_size (int_range 1 2) (pair (int_bound 5) body)) ])
      (frequency [ (3, return None); (1, map Option.some body) ]))

let gen_gop =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun comps -> G_spawn comps) (list_size (int_range 1 2) gen_gcomp));
        (1, map (fun i -> G_teardown i) (int_bound 7));
      ])

let rec print_gtree = function
  | G_call i -> gsyms.(i)
  | G_alloc -> "alloc"
  | G_branch arms ->
      "branch[" ^ String.concat " | " (List.map (fun a -> String.concat ";" (List.map print_gtree a)) arms) ^ "]"
  | G_loop b -> "loop[" ^ String.concat ";" (List.map print_gtree b) ^ "]"

let print_gop = function
  | G_teardown i -> Printf.sprintf "teardown %d" i
  | G_spawn comps ->
      Printf.sprintf "spawn [%s]"
        (String.concat ", "
           (List.map
              (fun c ->
                Printf.sprintf "kind %d exports {%s}%s" c.g_kind
                  (String.concat "; "
                     (List.map
                        (fun (s, b) -> gsyms.(s) ^ ": " ^ String.concat ";" (List.map print_gtree b))
                        c.g_exports))
                  (match c.g_entry with
                  | None -> ""
                  | Some b -> " main: " ^ String.concat ";" (List.map print_gtree b)))
              comps))

let rec gtree_stmt = function
  | G_call i -> Iface.Call { sym = gsyms.(i); ptr_args = [] }
  | G_alloc -> Iface.Alloc { buf = "b"; bytes = 8 }
  | G_branch arms -> Iface.Branch (List.map (List.map gtree_stmt) arms)
  | G_loop b -> Iface.Loop (List.map gtree_stmt b)

let rec gtree_calls acc = function
  | G_call i -> gsyms.(i) :: acc
  | G_alloc -> acc
  | G_branch arms -> List.fold_left (List.fold_left gtree_calls) acc arms
  | G_loop b -> List.fold_left gtree_calls acc b

let prop_guards_follow_declared_edges =
  QCheck.Test.make ~count:300 ~name:"trampoline: guards = declared edges"
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "\n" (List.map print_gop ops))
       QCheck.Gen.(list_size (int_range 1 25) gen_gop))
    (fun ops ->
      let mon = Monitor.create ~mem_bytes:(16 * 1024 * 1024) ~protection:Types.Full () in
      let built = Builder.build mon [] in
      let tr = built.Builder.trampolines in
      let thunked = Hashtbl.create 8 in
      (* cid -> (isolated, calls) of the live component *)
      let model = Hashtbl.create 8 in
      let exported = Hashtbl.create 8 in  (* sym -> cid of its live exporter *)
      let fresh_name = ref 0 in
      let live () = List.sort compare (Hashtbl.fold (fun cid _ acc -> cid :: acc) model []) in
      let teardown cid =
        Monitor.destroy_cubicle mon cid;
        Hashtbl.remove model cid;
        Hashtbl.filter_map_inplace (fun _ c -> if c = cid then None else Some c) exported
      in
      let step op =
        match op with
        | G_teardown i -> (
            match live () with [] -> () | l -> teardown (List.nth l (i mod List.length l)))
        | G_spawn comps ->
            (* at most 10 live components, well within the 14 tags *)
            while List.length (live ()) + List.length comps > 10 do
              teardown (List.hd (live ()))
            done;
            let taken = Hashtbl.copy exported in
            let comps =
              List.map
                (fun g ->
                  incr fresh_name;
                  let exports = List.filter (fun (s, _) -> not (Hashtbl.mem taken s)) g.g_exports in
                  List.iter (fun (s, _) -> Hashtbl.replace taken s 0) exports;
                  let kind =
                    match g.g_kind with 0 -> Types.Shared | 1 -> Types.Trusted | _ -> Types.Isolated
                  in
                  let body b = List.map gtree_stmt b in
                  let comp =
                    Builder.component ~code_ops:16 ~heap_pages:1 ~stack_pages:1
                      ~exports:
                        (List.map
                           (fun (s, b) -> Builder.export gsyms.(s) (fun _ _ -> 0) (body b))
                           exports)
                      ?entries:(Option.map (fun b -> [ Iface.fundecl "__main" (body b) ]) g.g_entry)
                      (Printf.sprintf "C%d" !fresh_name)
                  in
                  let trees = List.concat_map snd exports @ Option.value g.g_entry ~default:[] in
                  (comp, kind, exports, List.fold_left gtree_calls [] trees))
                comps
            in
            let fresh = Builder.spawn built (List.map (fun (c, k, _, _) -> (c, k)) comps) in
            List.iter2
              (fun (_, kind, exports, calls) (_, cid) ->
                List.iter
                  (fun (s, _) ->
                    Hashtbl.replace exported s cid;
                    if kind <> Types.Shared then Hashtbl.replace thunked gsyms.(s) ())
                  exports;
                Hashtbl.replace model cid (kind = Types.Isolated, calls))
              comps fresh
      in
      let check i =
        Hashtbl.iter
          (fun cid (iso, calls) ->
            let want s = iso && Hashtbl.mem thunked s && List.mem s calls in
            let n = ref 0 in
            Array.iter
              (fun s ->
                let got = Trampoline.has_guard tr cid s in
                if got <> want s then
                  QCheck.Test.fail_reportf "step %d: C%s (cid %d) %s: has_guard %b, model %b" i
                    (Monitor.cubicle_name mon cid) cid s got (want s);
                if got then begin
                  incr n;
                  Trampoline.enter_via_guard tr ~caller:cid s;
                  if Monitor.page_owner mon (Hw.Addr.page_of (Trampoline.guard_addr tr cid s)) <> Some cid
                  then QCheck.Test.fail_reportf "step %d: cid %d's entry for %s on a foreign page" i cid s
                end)
              gsyms;
            if Trampoline.guard_entries tr cid <> !n then
              QCheck.Test.fail_reportf "step %d: cid %d holds %d entries, %d expected" i cid
                (Trampoline.guard_entries tr cid) !n)
          model
      in
      List.iteri
        (fun i op ->
          step op;
          check i)
        ops;
      true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_window_acl;
      prop_scan_catches_planted;
      prop_search_index_matches_linear;
      prop_shared_index_matches_linear;
      prop_window_page_state_machine;
      prop_store_run_is_the_loop;
      prop_guards_follow_declared_edges;
    ]

let () =
  Alcotest.run "cubicle-core"
    [
      ( "window",
        [
          Alcotest.test_case "table" `Quick test_window_table;
          Alcotest.test_case "destroy" `Quick test_window_destroy;
          Alcotest.test_case "remove range" `Quick test_window_remove_range;
          Alcotest.test_case "remove one of duplicate grants" `Quick
            test_window_remove_range_duplicates;
          Alcotest.test_case "batched add" `Quick test_window_add_ranges_batch;
          Alcotest.test_case "batched add atomic" `Quick test_window_add_ranges_atomic;
          Alcotest.test_case "batched open" `Quick test_window_open_many;
          Alcotest.test_case "grant forwarding" `Quick test_window_forward;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "spatial" `Quick test_spatial_isolation;
          Alcotest.test_case "window grants" `Quick test_window_grants_access;
          Alcotest.test_case "third party blocked" `Quick test_window_close_blocks_third_party;
          Alcotest.test_case "causal consistency" `Quick test_causal_consistency;
          Alcotest.test_case "ownership enforced" `Quick test_window_ownership_enforced;
          Alcotest.test_case "class mismatch" `Quick test_window_class_mismatch;
          Alcotest.test_case "stack windows" `Quick test_stack_windows;
          Alcotest.test_case "page granularity leak" `Quick test_page_granularity_leak;
          Alcotest.test_case "self-open rejected" `Quick test_self_open_rejected;
        ] );
      ( "protection levels",
        [
          Alcotest.test_case "none" `Quick test_protection_none_no_faults;
          Alcotest.test_case "mpk w/o acls" `Quick test_protection_mpk_no_acls;
          Alcotest.test_case "full" `Quick test_protection_full_needs_window;
        ] );
      ( "calls",
        [
          Alcotest.test_case "unknown symbol" `Quick test_call_unknown_symbol_cfi;
          Alcotest.test_case "edge counting" `Quick test_call_counts_edges;
          Alcotest.test_case "handle after teardown and respawn" `Quick
            test_handle_teardown_and_respawn;
          Alcotest.test_case "handle on two monitors" `Quick test_handle_two_monitors;
          Alcotest.test_case "exception safety" `Quick test_call_pkru_restored_on_exception;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "stack arguments" `Quick test_stack_argument_copy;
          Alcotest.test_case "shared cubicle" `Quick test_shared_cubicle_runs_with_caller_privileges;
        ] );
      ( "loader",
        [
          Alcotest.test_case "rejects wrpkru" `Quick test_loader_rejects_wrpkru;
          Alcotest.test_case "rejects syscall" `Quick test_loader_rejects_syscall;
          Alcotest.test_case "rejects hidden" `Quick test_loader_rejects_hidden_sequence;
          Alcotest.test_case "accepts signed" `Quick test_loader_accepts_signed_trusted_code;
          Alcotest.test_case "scans once per component" `Quick test_loader_scans_once_per_component;
          Alcotest.test_case "x-only code" `Quick test_loader_code_execute_only;
          Alcotest.test_case "data perms" `Quick test_loader_data_perms;
          Alcotest.test_case "page metadata" `Quick test_loader_page_metadata;
        ] );
      ( "cfi",
        [
          Alcotest.test_case "builder calls" `Quick test_builder_and_call;
          Alcotest.test_case "entry naming an export" `Quick
            test_builder_rejects_entry_naming_export;
          Alcotest.test_case "guard entry ok" `Quick test_guard_page_entry_allowed;
          Alcotest.test_case "rogue thunk fetch" `Quick test_rogue_thunk_fetch_faults;
          Alcotest.test_case "rogue cross fetch" `Quick test_rogue_cross_code_fetch_faults;
          Alcotest.test_case "own code fetch" `Quick test_own_code_fetch_allowed;
        ] );
      ( "resources",
        [
          Alcotest.test_case "key exhaustion" `Quick test_key_exhaustion;
          Alcotest.test_case "heap growth" `Quick test_malloc_heap_growth;
          Alcotest.test_case "foreign free" `Quick test_free_foreign_pointer;
          Alcotest.test_case "page ownership" `Quick test_alloc_pages_ownership;
          Alcotest.test_case "destroy cubicle" `Quick test_destroy_cubicle;
          Alcotest.test_case "destroy recycles key" `Quick test_destroy_recycles_key;
          Alcotest.test_case "destroy revokes grants" `Quick test_destroy_revokes_peer_grants;
          Alcotest.test_case "destroy closes only open grants" `Quick
            test_destroy_closes_only_open_grants;
          Alcotest.test_case "spawn guards old exports" `Quick
            test_spawn_guards_cover_existing_exports;
          Alcotest.test_case "destroy churn" `Quick test_destroy_full_slot_reuse;
          Alcotest.test_case "destroy monitor rejected" `Quick test_destroy_monitor_rejected;
          Alcotest.test_case "extend grows guard tables" `Quick test_extend_grows_guard_tables;
        ] );
      ("denials", [ Alcotest.test_case "every rule, parent text" `Quick test_denial_table ]);
      ( "accessors",
        [
          Alcotest.test_case "read_into = read_bytes" `Quick test_read_into_matches_read_bytes;
          Alcotest.test_case "write_sub = write_bytes" `Quick test_write_sub_matches_write_bytes;
          Alcotest.test_case "denied changes nothing" `Quick test_denied_access_changes_nothing;
          Alcotest.test_case "store run cases" `Quick test_store_run_cases;
          Alcotest.test_case "check_read/write = copying twins" `Quick test_check_matches_copy;
        ] );
      ("properties", qsuite);
    ]
