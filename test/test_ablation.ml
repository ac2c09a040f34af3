(* Tests for the design-space ablations of §5.6/§8: eager mapping,
   eager revocation, and window-specific (dedicated) MPK tags. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let is_violation f = match f () with
  | _ -> false
  | exception Hw.Fault.Violation _ -> true

let mk_system ?policy () =
  let mon = Monitor.create ?policy ~protection:Types.Full () in
  let foo = Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  let bar = Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  Monitor.register_exports mon bar
    [
      {
        Monitor.sym = "bar_touch";
        fn = (fun ctx a -> Api.write_u8 ctx a.(0) 0xAA; 0);
        stack_bytes = 0;
      };
    ];
  (mon, foo, bar)

let windowed_buffer mon foo =
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 4096 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:4096;
  (ctx, buf, wid)

(* --- eager mapping ----------------------------------------------------------- *)

let test_eager_open_no_faults () =
  let policy = { Monitor.mapping = `Eager_on_open; revocation = `Causal } in
  let mon, foo, bar = mk_system ~policy () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open ctx wid bar;
  let faults0 = Hw.Cpu.fault_count (Monitor.cpu mon) in
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
  check_int "no fault on first access" faults0 (Hw.Cpu.fault_count (Monitor.cpu mon))

let test_lazy_open_faults_once () =
  let mon, foo, bar = mk_system () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open ctx wid bar;
  let faults0 = Hw.Cpu.fault_count (Monitor.cpu mon) in
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
  check_int "exactly one fault" (faults0 + 1) (Hw.Cpu.fault_count (Monitor.cpu mon));
  (* and none on the second touch *)
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
  check_int "tag cached" (faults0 + 1) (Hw.Cpu.fault_count (Monitor.cpu mon))

let test_eager_open_pays_retags_even_unused () =
  (* The cost asymmetry CubicleOS exploits: eager mapping retags pages
     that the grantee may never touch. *)
  let policy = { Monitor.mapping = `Eager_on_open; revocation = `Causal } in
  let mon, foo, bar = mk_system ~policy () in
  let ctx, _, wid = windowed_buffer mon foo in
  let r0 = Monitor.retag_count mon in
  Api.window_open ctx wid bar;
  check_bool "retagged on open without any access" true (Monitor.retag_count mon > r0);
  let mon', foo', bar' = mk_system () in
  let ctx', _, wid' = windowed_buffer mon' foo' in
  let r0' = Monitor.retag_count mon' in
  Api.window_open ctx' wid' bar';
  check_int "lazy retags nothing" r0' (Monitor.retag_count mon')

(* --- eager revocation ----------------------------------------------------------- *)

let test_eager_revoke_blocks_immediately () =
  let policy = { Monitor.mapping = `Lazy_trap; revocation = `Eager_revoke } in
  let mon, foo, bar = mk_system ~policy () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open ctx wid bar;
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
  Api.window_close ctx wid bar;
  (* under causal consistency BAR could still touch the page; under
     eager revocation it faults right away *)
  check_bool "locked out immediately" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]))

let test_causal_revoke_allows_cached_tag () =
  let mon, foo, bar = mk_system () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open ctx wid bar;
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
  Api.window_close ctx wid bar;
  ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
  check_bool "causally consistent access allowed" true true

let test_eager_revoke_costs_more_retags () =
  let run policy =
    let mon, foo, bar = mk_system ~policy () in
    let ctx, buf, wid = windowed_buffer mon foo in
    for _ = 1 to 10 do
      Api.window_open ctx wid bar;
      ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
      Api.window_close ctx wid bar
    done;
    Monitor.retag_count mon
  in
  let causal = run Monitor.default_policy in
  let eager = run { Monitor.mapping = `Lazy_trap; revocation = `Eager_revoke } in
  check_bool "causal needs fewer retags" true (causal < eager)

(* --- dedicated window tags --------------------------------------------------------- *)

let test_dedicated_tag_no_faults_after_grant () =
  let mon, foo, bar = mk_system () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open_dedicated ctx wid bar;
  let faults0 = Hw.Cpu.fault_count (Monitor.cpu mon) in
  for _ = 1 to 5 do
    ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |])
  done;
  check_int "zero faults on hot window" faults0 (Hw.Cpu.fault_count (Monitor.cpu mon));
  check_int "one key in use" 1 (Monitor.dedicated_keys_in_use mon)

let test_dedicated_tag_owner_keeps_access () =
  let mon, foo, bar = mk_system () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open_dedicated ctx wid bar;
  (* the owner can still read/write its own (now specially tagged) data *)
  Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 7);
  Monitor.run_as mon foo (fun () -> check_int "owner reads back" 7 (Api.read_u8 ctx buf))

let test_dedicated_tag_third_party_blocked () =
  let mon, foo, bar = mk_system () in
  let baz = Monitor.create_cubicle mon ~name:"BAZ" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1 in
  Monitor.register_exports mon baz
    [ { Monitor.sym = "baz_read"; fn = (fun c a -> Api.read_u8 c a.(0)); stack_bytes = 0 } ];
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open_dedicated ctx wid bar;
  check_bool "third party still blocked" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "baz_read") [| buf |]))

let test_dedicated_tag_close_returns_key () =
  let mon, foo, bar = mk_system () in
  let ctx, buf, wid = windowed_buffer mon foo in
  Api.window_open_dedicated ctx wid bar;
  check_int "key in use" 1 (Monitor.dedicated_keys_in_use mon);
  Api.window_close_dedicated ctx wid bar;
  check_int "key returned" 0 (Monitor.dedicated_keys_in_use mon);
  (* BAR really is locked out now *)
  check_bool "revoked" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]));
  (* and the owner's pages came back to the owner's tag *)
  Monitor.run_as mon foo (fun () -> ignore (Api.read_u8 ctx buf))

let test_dedicated_tags_exhaust () =
  (* One tag per window: with 2 cubicle keys used, ~12 dedicated tags
     fit before the pool is dry — the paper's core argument against
     per-buffer tags (§5.6). *)
  let mon, foo, bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  let exhausted = ref false in
  Api.window_table_extend ctx ~klass:Mm.Page_meta.Heap;
  (try
     for _ = 1 to 14 do
       let buf = Api.malloc_page_aligned ctx 4096 in
       let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
       Api.window_add ctx wid ~ptr:buf ~size:4096;
       Api.window_open_dedicated ctx wid bar
     done
   with Types.Denied (Out_of_keys { dedicated = true }) -> exhausted := true);
  check_bool "tags exhausted" true !exhausted;
  (* trap-and-map keeps working fine with many windows, provided the
     descriptor arrays are extended (paper §5.3) *)
  let mon', foo', bar' = mk_system () in
  let ctx' = Monitor.ctx_for mon' foo' in
  Deny.check "array fills up without extension"
    (Descriptors_full { cid = foo'; klass = Mm.Page_meta.Heap; capacity = 8 })
    (fun () ->
      for _ = 1 to 30 do
        let buf = Api.malloc_page_aligned ctx' 4096 in
        let wid = Api.window_init ctx' ~klass:Mm.Page_meta.Heap in
        Api.window_add ctx' wid ~ptr:buf ~size:4096
      done);
  Api.window_table_extend ctx' ~klass:Mm.Page_meta.Heap;
  Api.window_table_extend ctx' ~klass:Mm.Page_meta.Heap;
  for _ = 1 to 20 do
    let buf = Api.malloc_page_aligned ctx' 4096 in
    let wid = Api.window_init ctx' ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx' wid ~ptr:buf ~size:4096;
    Api.window_open ctx' wid bar'
  done;
  check_bool "trap-and-map scales past 16 windows" true true

let test_dedicated_reuse_after_release () =
  let mon, foo, bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  for _ = 1 to 30 do
    let buf = Api.malloc_page_aligned ctx 4096 in
    let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx wid ~ptr:buf ~size:4096;
    Api.window_open_dedicated ctx wid bar;
    Api.window_close_dedicated ctx wid bar;
    Api.window_destroy ctx wid
  done;
  check_int "keys recycled" 0 (Monitor.dedicated_keys_in_use mon)

(* Failure atomicity: a failing dedicated-window service leaves no
   grant, no tag and no event behind (validate -> allocate -> mutate ->
   emit); only the service charge is billed. *)

let dedicated_events mon op =
  List.length
    (List.filter
       (fun (e : Telemetry.Bus.entry) ->
         match e.Telemetry.Bus.ev with Telemetry.Event.Window w -> w.op = op | _ -> false)
       (Telemetry.Bus.events (Monitor.bus mon)))

let check_failed_open mon ctx wid ~buf ~peer expected =
  Telemetry.Bus.set_tracing (Monitor.bus mon) true;
  Deny.check "window_open_dedicated refused" expected (fun () ->
      Api.window_open_dedicated ctx wid peer);
  check_bool "no grant" false
    (Monitor.window_grants mon (Api.self ctx) ~peer ~ptr:buf ~size:4096);
  check_int "no tag" 0 (Monitor.dedicated_keys_in_use mon);
  check_int "no event" 0 (dedicated_events mon Telemetry.Event.Open_dedicated)

let test_dedicated_open_virtualised_atomic () =
  let mon = Monitor.create ~virtualise:true ~protection:Types.Full () in
  let foo = Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  let bar = Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  let ctx, buf, wid = windowed_buffer mon foo in
  check_failed_open mon ctx wid ~buf ~peer:bar Dedicated_virtualised

let test_dedicated_open_unknown_peer_atomic () =
  let mon, foo, _ = mk_system () in
  let ctx, buf, wid = windowed_buffer mon foo in
  check_failed_open mon ctx wid ~buf ~peer:77 (No_cubicle 77)

let test_dedicated_open_exhausted_atomic () =
  let mon, foo, bar = mk_system () in
  (* FOO and BAR hold 2 of the 14 tags; 12 more cubicles take the rest *)
  for i = 1 to 12 do
    ignore
      (Monitor.create_cubicle mon ~name:(Printf.sprintf "X%02d" i) ~kind:Types.Isolated
         ~heap_pages:1 ~stack_pages:1)
  done;
  let ctx, buf, wid = windowed_buffer mon foo in
  check_failed_open mon ctx wid ~buf ~peer:bar (Out_of_keys { dedicated = true })

let test_dedicated_close_unknown_window_silent () =
  let mon, foo, bar = mk_system () in
  let ctx = Monitor.ctx_for mon foo in
  Telemetry.Bus.set_tracing (Monitor.bus mon) true;
  Deny.check "window_close_dedicated on wid 999 refused" (No_window { wid = 999; cid = foo })
    (fun () -> Api.window_close_dedicated ctx 999 bar);
  check_int "no event" 0 (dedicated_events mon Telemetry.Event.Close_dedicated)

let test_hybrid_cheaper_for_hot_window () =
  (* §8's suggested hybrid: a frequently re-opened window is cheaper
     with a dedicated tag than with per-cycle trap-and-map. *)
  let hot_cycles use_dedicated =
    let mon, foo, bar = mk_system () in
    let ctx, buf, wid = windowed_buffer mon foo in
    let c0 = Hw.Cost.cycles (Monitor.cost mon) in
    if use_dedicated then begin
      Api.window_open_dedicated ctx wid bar;
      for _ = 1 to 100 do
        ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
        Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 1)
      done
    end
    else begin
      Api.window_open ctx wid bar;
      for _ = 1 to 100 do
        ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_touch") [| buf |]);
        (* the owner touching the page bounces the tag back each time *)
        Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 1)
      done
    end;
    Hw.Cost.cycles (Monitor.cost mon) - c0
  in
  check_bool "dedicated tag wins for ping-pong access" true
    (hot_cycles true < hot_cycles false)

(* free_pages takes exactly the base alloc_pages returned: an address
   inside the run's first page is refused and frees nothing. *)
let test_free_pages_interior_refused () =
  let mon, foo, _ = mk_system () in
  let base = Monitor.alloc_pages mon foo 2 ~kind:Mm.Page_meta.Heap in
  let free_before = Monitor.free_page_count mon in
  Deny.check "interior address refused" (Not_allocation_base (base + 8)) (fun () ->
      Monitor.free_pages mon foo (base + 8));
  check_int "no page freed" free_before (Monitor.free_page_count mon);
  check_bool "run still owned" true (Monitor.page_owner mon (Hw.Addr.page_of base) = Some foo);
  Monitor.free_pages mon foo base;
  check_int "base frees the run" (free_before + 2) (Monitor.free_page_count mon)

let () =
  Alcotest.run "ablation"
    [
      ( "eager mapping",
        [
          Alcotest.test_case "no faults" `Quick test_eager_open_no_faults;
          Alcotest.test_case "lazy faults once" `Quick test_lazy_open_faults_once;
          Alcotest.test_case "eager pays unused" `Quick test_eager_open_pays_retags_even_unused;
        ] );
      ( "eager revocation",
        [
          Alcotest.test_case "blocks immediately" `Quick test_eager_revoke_blocks_immediately;
          Alcotest.test_case "causal allows cached" `Quick test_causal_revoke_allows_cached_tag;
          Alcotest.test_case "causal fewer retags" `Quick test_eager_revoke_costs_more_retags;
        ] );
      ( "dedicated tags",
        [
          Alcotest.test_case "no faults" `Quick test_dedicated_tag_no_faults_after_grant;
          Alcotest.test_case "owner access" `Quick test_dedicated_tag_owner_keeps_access;
          Alcotest.test_case "third party blocked" `Quick test_dedicated_tag_third_party_blocked;
          Alcotest.test_case "close returns key" `Quick test_dedicated_tag_close_returns_key;
          Alcotest.test_case "exhaustion" `Quick test_dedicated_tags_exhaust;
          Alcotest.test_case "key recycling" `Quick test_dedicated_reuse_after_release;
          Alcotest.test_case "hybrid wins when hot" `Quick test_hybrid_cheaper_for_hot_window;
          Alcotest.test_case "failed open: virtualised" `Quick
            test_dedicated_open_virtualised_atomic;
          Alcotest.test_case "failed open: unknown peer" `Quick
            test_dedicated_open_unknown_peer_atomic;
          Alcotest.test_case "failed open: tags exhausted" `Quick
            test_dedicated_open_exhausted_atomic;
          Alcotest.test_case "failed close: unknown window" `Quick
            test_dedicated_close_unknown_window_silent;
        ] );
      ( "page runs",
        [ Alcotest.test_case "interior base refused" `Quick test_free_pages_interior_refused ] );
    ]
