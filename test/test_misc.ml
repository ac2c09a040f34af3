(* Unit tests for supporting modules: stats, cost accounting, window
   descriptor array capacity, and remaining accessor corners. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- stats -------------------------------------------------------------- *)

let count_call b ~caller ~callee sym =
  Telemetry.Bus.count_call b ~caller ~callee ~sym ~sid:(Telemetry.Bus.intern_sym b sym)

let test_stats_counters () =
  let b = Telemetry.Bus.create () in
  let s = Stats.of_bus b in
  count_call b ~caller:1 ~callee:2 "f";
  count_call b ~caller:1 ~callee:2 "f";
  count_call b ~caller:2 ~callee:3 "g";
  Telemetry.Bus.count_shared_call b ~caller:1 ~sym:"memcpy"
    ~sid:(Telemetry.Bus.intern_sym b "memcpy");
  Telemetry.Bus.count_fault b;
  Telemetry.Bus.count_retag b;
  Telemetry.Bus.count_window_op b;
  Telemetry.Bus.count_rejected b;
  check_int "edge 1->2" 2 (Stats.calls_between s ~caller:1 ~callee:2);
  check_int "into 2" 2 (Stats.calls_into s 2);
  check_int "into 3" 1 (Stats.calls_into s 3);
  check_int "sym f" 2 (Stats.calls_to_sym s "f");
  check_int "total" 3 (Stats.total_calls s);
  check_int "shared" 1 (Stats.shared_calls s);
  check_int "faults" 1 (Stats.faults s);
  check_int "retags" 1 (Stats.retags s);
  check_int "window ops" 1 (Stats.window_ops s);
  check_int "rejected" 1 (Stats.rejected s)

let test_stats_edges_sorted () =
  let b = Telemetry.Bus.create () in
  let s = Stats.of_bus b in
  for _ = 1 to 5 do count_call b ~caller:1 ~callee:2 "hot" done;
  count_call b ~caller:3 ~callee:4 "cold";
  (match Stats.edges s with
  | ((1, 2), 5) :: ((3, 4), 1) :: [] -> ()
  | _ -> Alcotest.fail "expected sorted edges");
  let snap = Stats.snapshot s in
  count_call b ~caller:3 ~callee:4 "cold";
  (match Stats.diff_edges s ~since:snap with
  | [ ((3, 4), 1) ] -> ()
  | _ -> Alcotest.fail "expected only the delta")

let test_stats_reset () =
  let b = Telemetry.Bus.create () in
  let s = Stats.of_bus b in
  count_call b ~caller:1 ~callee:2 "f";
  Telemetry.Bus.count_fault b;
  Stats.reset s;
  check_int "calls cleared" 0 (Stats.total_calls s);
  check_int "faults cleared" 0 (Stats.faults s);
  check_int "sym cleared" 0 (Stats.calls_to_sym s "f");
  count_call b ~caller:1 ~callee:2 "f";
  check_int "sym counts again" 1 (Stats.calls_to_sym s "f");
  check_int "edge counts again" 1 (Stats.calls_between s ~caller:1 ~callee:2)

(* --- cost --------------------------------------------------------------- *)

let test_cost_accounting () =
  let c = Hw.Cost.create () in
  Hw.Cost.charge c 100;
  Hw.Cost.charge_mem c 64;
  check_bool "cycles accumulate" true (Hw.Cost.cycles c > 100);
  Hw.Cost.reset c;
  check_int "reset" 0 (Hw.Cost.cycles c)

let test_cost_conversions () =
  (* 2.2 GHz: 2.2M cycles per ms *)
  check_bool "ms" true (abs_float (Hw.Cost.to_ms 2_200_000 -. 1.0) < 1e-9);
  check_bool "us" true (abs_float (Hw.Cost.to_us 2_200 -. 1.0) < 1e-9)

let test_custom_model () =
  let model = { Hw.Cost.default_model with wrpkru = 999 } in
  let cpu = Hw.Cpu.create ~model () in
  let c0 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_allow;
  check_int "model override respected" 999 (Hw.Cost.cycles (Hw.Cpu.cost cpu) - c0)

(* --- window descriptor array capacity (paper §5.3) ------------------------ *)

let test_window_capacity_and_extend () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:4 ~index:(Window.create_index 64) in
  check_int "initial capacity" 8 (Window.capacity tbl Mm.Page_meta.Heap);
  for _ = 1 to 8 do
    ignore (Window.init tbl ~klass:Mm.Page_meta.Heap)
  done;
  Deny.check "ninth rejected" (Descriptors_full { cid = 1; klass = Mm.Page_meta.Heap; capacity = 8 })
    (fun () -> Window.init tbl ~klass:Mm.Page_meta.Heap);
  (* other classes are unaffected *)
  ignore (Window.init tbl ~klass:Mm.Page_meta.Stack);
  Window.extend tbl Mm.Page_meta.Heap;
  check_int "doubled" 16 (Window.capacity tbl Mm.Page_meta.Heap);
  ignore (Window.init tbl ~klass:Mm.Page_meta.Heap);
  check_int "nine heap windows live" 9
    (List.length
       (List.filter
          (fun w -> w.Window.klass = Mm.Page_meta.Heap)
          (Window.live_windows tbl)))

let test_window_destroy_frees_slot () =
  let tbl = Window.create_table ~owner:1 ~ncubicles:4 ~index:(Window.create_index 64) in
  let ws = List.init 8 (fun _ -> Window.init tbl ~klass:Mm.Page_meta.Heap) in
  Window.destroy tbl (List.hd ws);
  (* a freed slot can be reused without extending *)
  ignore (Window.init tbl ~klass:Mm.Page_meta.Heap)

let test_monitor_extend_api () =
  let mon = Monitor.create ~protection:Types.Full () in
  let c = Monitor.create_cubicle mon ~name:"C" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1 in
  let ctx = Monitor.ctx_for mon c in
  for _ = 1 to 8 do
    ignore (Api.window_init ctx ~klass:Mm.Page_meta.Heap)
  done;
  Deny.check "full" (Descriptors_full { cid = c; klass = Mm.Page_meta.Heap; capacity = 8 })
    (fun () -> Api.window_init ctx ~klass:Mm.Page_meta.Heap);
  Api.window_table_extend ctx ~klass:Mm.Page_meta.Heap;
  ignore (Api.window_init ctx ~klass:Mm.Page_meta.Heap)

(* --- cpu odds and ends ------------------------------------------------------ *)

let test_cpu_u16 () =
  let cpu = Hw.Cpu.create ~mem_bytes:8192 () in
  Hw.Cpu.map_page cpu 0 Hw.Page_table.perm_rw ~key:0;
  Hw.Cpu.write_u16 cpu 10 0xBEEF;
  check_int "u16 roundtrip" 0xBEEF (Hw.Cpu.read_u16 cpu 10);
  (* masked to 16 bits *)
  Hw.Cpu.write_u16 cpu 10 0x12345;
  check_int "masked" 0x2345 (Hw.Cpu.read_u16 cpu 10)

let test_fault_pp () =
  let f = { Hw.Fault.addr = 0x2000; access = Hw.Fault.Write; key = 3; reason = Hw.Fault.Key_perm } in
  Alcotest.(check string) "pretty" "fault(write at 0x2000, key 3: protection key)"
    (Format.asprintf "%a" Hw.Fault.pp f)

let test_types_strings () =
  check_bool "kinds" true
    (List.map Types.kind_to_string [ Types.Isolated; Types.Shared; Types.Trusted ]
    = [ "isolated"; "shared"; "trusted" ]);
  check_bool "protections" true
    (List.map Types.protection_to_string
       [ Types.None_; Types.Trampolines; Types.Mpk; Types.Full ]
    = [ "baseline"; "w/o MPK"; "w/o ACLs"; "full" ])

(* --- reproducibility --------------------------------------------------------- *)

let test_speedtest_deterministic () =
  (* identical configurations must produce identical simulated cycle
     counts: all randomness in the stack is seeded deterministic *)
  let total () = Ukernel.Compose.speedtest_total_cycles ~n:30 Ukernel.Compose.Cubicle4 in
  check_int "bit-identical rerun" (total ()) (total ())

let test_webserver_deterministic () =
  let run () =
    let sys =
      Libos.Boot.net_stack ~protection:Types.Full
        ~extra:[ (Httpd.Server.component (), Types.Isolated) ] ()
    in
    Libos.Boot.populate sys ~as_app:"NGINX" [ ("/d", String.make 20000 'd') ];
    let siege = Httpd.Siege.make sys (Httpd.Server.start sys) in
    (Httpd.Siege.fetch siege "/d").Httpd.Siege.cycles
  in
  check_int "identical request cost" (run ()) (run ())

let () =
  Alcotest.run "misc"
    [
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "edges sorted" `Quick test_stats_edges_sorted;
          Alcotest.test_case "reset" `Quick test_stats_reset;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accounting" `Quick test_cost_accounting;
          Alcotest.test_case "conversions" `Quick test_cost_conversions;
          Alcotest.test_case "custom model" `Quick test_custom_model;
        ] );
      ( "window capacity",
        [
          Alcotest.test_case "capacity+extend" `Quick test_window_capacity_and_extend;
          Alcotest.test_case "destroy frees slot" `Quick test_window_destroy_frees_slot;
          Alcotest.test_case "monitor api" `Quick test_monitor_extend_api;
        ] );
      ( "reproducibility",
        [
          Alcotest.test_case "speedtest deterministic" `Slow test_speedtest_deterministic;
          Alcotest.test_case "webserver deterministic" `Quick test_webserver_deterministic;
        ] );
      ( "odds and ends",
        [
          Alcotest.test_case "u16" `Quick test_cpu_u16;
          Alcotest.test_case "fault pp" `Quick test_fault_pp;
          Alcotest.test_case "type names" `Quick test_types_strings;
        ] );
    ]
