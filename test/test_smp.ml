(* SMP tests: per-core PKRU/TLB state, cross-core shootdowns, the
   multi-core scheduler's migration and work stealing, per-core event
   tracks, and the per-core cycle-attribution invariant. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- per-core hardware state ------------------------------------------- *)

let test_per_core_pkru () =
  let cpu = Hw.Cpu.create ~ncores:2 () in
  check_int "two cores" 2 (Hw.Cpu.ncores cpu);
  check_int "boots on core 0" 0 (Hw.Cpu.core_id cpu);
  let p = Hw.Pkru.of_keys [ 3 ] in
  Hw.Cpu.wrpkru cpu p;
  Hw.Cpu.set_core cpu 1;
  (* core 1 has its own register: untouched by core 0's wrpkru *)
  check_bool "core 1 pkru is its own" true (Hw.Cpu.pkru cpu <> p);
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 5 ]);
  Hw.Cpu.set_core cpu 0;
  check_bool "core 0 pkru survived core 1's wrpkru" true (Hw.Cpu.pkru cpu = p)

let test_set_core_validates () =
  let cpu = Hw.Cpu.create ~ncores:2 () in
  Alcotest.check_raises "no core 2"
    (Invalid_argument "Cpu.set_core: no core 2 (machine has 2)") (fun () ->
      Hw.Cpu.set_core cpu 2)

let test_cross_core_shootdown () =
  let mon = Monitor.create ~ncores:2 ~protection:Types.Full () in
  let cpu = Monitor.cpu mon in
  let a =
    Monitor.create_cubicle mon ~name:"A" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  let ctx = Monitor.ctx_for mon a in
  let buf = Api.malloc_page_aligned ctx Hw.Addr.page_size in
  (* warm both cores' TLBs on the page *)
  Monitor.run_as mon a (fun () -> ignore (Api.read_u8 ctx buf));
  Hw.Cpu.set_core cpu 1;
  Monitor.run_as mon a (fun () -> ignore (Api.read_u8 ctx buf));
  Hw.Cpu.set_core cpu 0;
  let before = Hw.Cpu.shootdown_count cpu in
  (* a page-table change must be broadcast: every remote core's TLB
     entry for the page is invalidated *)
  Hw.Cpu.set_page_key cpu (Hw.Addr.page_of buf) (Monitor.cubicle_key mon a);
  check_int "one remote delivery per other core" (before + 1) (Hw.Cpu.shootdown_count cpu)

let test_single_core_no_shootdowns () =
  let mon = Monitor.create ~protection:Types.Full () in
  let a =
    Monitor.create_cubicle mon ~name:"A" ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
  in
  let ctx = Monitor.ctx_for mon a in
  let buf = Api.malloc_page_aligned ctx Hw.Addr.page_size in
  Hw.Cpu.set_page_key (Monitor.cpu mon) (Hw.Addr.page_of buf) 0;
  check_int "no remote cores, no shootdowns" 0 (Hw.Cpu.shootdown_count (Monitor.cpu mon))

(* --- the multi-core scheduler ------------------------------------------ *)

let mk_smp ncores =
  let mon = Monitor.create ~ncores ~protection:Types.Full () in
  let a =
    Monitor.create_cubicle mon ~name:"A" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
  in
  (mon, a)

let test_work_stealing () =
  (* pile every thread onto core 0: core 1 is idle and must steal *)
  let mon, a = mk_smp 2 in
  let sched = Libos.Sched.create mon in
  for _ = 1 to 4 do
    ignore
      (Libos.Sched.spawn ~core:0 sched a (fun () ->
           for _ = 1 to 3 do
             Libos.Sched.yield ()
           done))
  done;
  Libos.Sched.run sched;
  check_int "all done" 0 (Libos.Sched.alive sched);
  check_bool "idle core stole work" true (Libos.Sched.steals sched > 0);
  check_bool "stolen threads migrated" true (Libos.Sched.migrations sched > 0)

let test_spawn_spreads_load () =
  (* default placement is least-loaded: two spawns land on two cores *)
  let mon, a = mk_smp 2 in
  let cpu = Monitor.cpu mon in
  let sched = Libos.Sched.create mon in
  let cores = ref [] in
  for _ = 1 to 2 do
    ignore
      (Libos.Sched.spawn sched a (fun () -> cores := Hw.Cpu.core_id cpu :: !cores))
  done;
  Libos.Sched.run sched;
  check_bool "first slices on distinct cores" true
    (List.sort compare !cores = [ 0; 1 ])

let test_scheduler_restores_entry_core () =
  let mon, a = mk_smp 4 in
  let cpu = Monitor.cpu mon in
  let sched = Libos.Sched.create mon in
  for _ = 1 to 8 do
    ignore (Libos.Sched.spawn sched a (fun () -> Libos.Sched.yield ()))
  done;
  Libos.Sched.run sched;
  check_int "machine back on the entry core" 0 (Hw.Cpu.core_id cpu)

let test_ncores_bounded_by_machine () =
  let mon, _ = mk_smp 2 in
  check_bool "ncores > machine rejected" true
    (try
       ignore (Libos.Sched.create ~ncores:3 mon);
       false
     with Invalid_argument _ -> true)

(* --- per-core event tracks --------------------------------------------- *)

let test_per_core_trace_lanes () =
  let cpu = Hw.Cpu.create ~ncores:2 () in
  let bus = Hw.Cpu.bus cpu in
  Telemetry.Bus.set_tracing bus true;
  Telemetry.Bus.emit bus (Telemetry.Event.Mark "on-core-0");
  Hw.Cpu.set_core cpu 1;
  Telemetry.Bus.emit bus (Telemetry.Event.Mark "on-core-1");
  Hw.Cpu.set_core cpu 0;
  Telemetry.Bus.emit bus (Telemetry.Event.Mark "back-on-0");
  let entries = Telemetry.Bus.events bus in
  check_int "emission order preserved across per-core rings" 3 (List.length entries);
  Alcotest.(check (list int))
    "entries carry their core" [ 0; 1; 0 ]
    (List.map (fun (e : Telemetry.Bus.entry) -> e.Telemetry.Bus.core) entries);
  let json =
    Telemetry.Export.trace_json
      ~names:(Printf.sprintf "C%d")
      ~cycles_per_us:Hw.Cost.cycles_per_us entries
  in
  let has needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "core 0 lane (tid 1)" true (has "\"tid\":1");
  check_bool "core 1 lane (tid 2)" true (has "\"tid\":2")

(* --- the attribution invariant, per core -------------------------------- *)

let check_core_invariants mon =
  let cost = Monitor.cost mon in
  let attrib = cost.Hw.Cost.attrib in
  let sum = ref 0 in
  for c = 0 to Hw.Cpu.ncores (Monitor.cpu mon) - 1 do
    sum := !sum + Hw.Cost.core_cycles cost c;
    check_int
      (Printf.sprintf "attrib core %d == cost core %d" c c)
      (Hw.Cost.core_cycles cost c)
      (Telemetry.Attrib.core_total attrib ~core:c)
  done;
  check_int "per-core counters sum to total" (Hw.Cost.cycles cost) !sum;
  check_int "attribution sums to total" (Hw.Cost.cycles cost)
    (Telemetry.Attrib.total attrib)

let test_attrib_sums_across_cores () =
  let mon, a = mk_smp 4 in
  let b =
    Monitor.create_cubicle mon ~name:"B" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
  in
  let sched = Libos.Sched.create mon in
  List.iteri
    (fun i cid ->
      ignore
        (Libos.Sched.spawn ~core:(i mod 4) sched cid (fun () ->
             for _ = 1 to 3 do
               Hw.Cost.charge (Monitor.cost mon) (100 * (i + 1));
               Libos.Sched.yield ()
             done)))
    [ a; b; a; b; a; b ];
  Libos.Sched.run sched;
  check_core_invariants mon

(* qcheck: under a random N-core schedule — random core pinning, work
   per slice and yield counts — the per-core cycle counters always sum
   to Cost.cycles, and every core plane of the attribution table equals
   its core's counter. *)
let prop_random_schedules =
  QCheck.Test.make ~name:"attrib: core planes match per-core counters" ~count:60
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 1 12) (triple (int_range 0 3) (int_range 1 5) small_nat)))
    (fun (ncores, threads) ->
      let mon, a = mk_smp ncores in
      let cost = Monitor.cost mon in
      let sched = Libos.Sched.create mon in
      List.iter
        (fun (core, yields, work) ->
          ignore
            (Libos.Sched.spawn ~core:(core mod ncores) sched a (fun () ->
                 for _ = 1 to yields do
                   Hw.Cost.charge cost (50 * (work + 1));
                   Libos.Sched.yield ()
                 done)))
        threads;
      Libos.Sched.run sched;
      let attrib = cost.Hw.Cost.attrib in
      let sum = ref 0 in
      let planes_ok = ref true in
      for c = 0 to Hw.Cpu.ncores (Monitor.cpu mon) - 1 do
        sum := !sum + Hw.Cost.core_cycles cost c;
        if Telemetry.Attrib.core_total attrib ~core:c <> Hw.Cost.core_cycles cost c then
          planes_ok := false
      done;
      !planes_ok
      && !sum = Hw.Cost.cycles cost
      && Telemetry.Attrib.total attrib = Hw.Cost.cycles cost)

let () =
  Alcotest.run "smp"
    [
      ( "per-core hw",
        [
          Alcotest.test_case "per-core pkru" `Quick test_per_core_pkru;
          Alcotest.test_case "set_core validates" `Quick test_set_core_validates;
          Alcotest.test_case "cross-core shootdown" `Quick test_cross_core_shootdown;
          Alcotest.test_case "single-core quiet" `Quick test_single_core_no_shootdowns;
        ] );
      ( "smp scheduler",
        [
          Alcotest.test_case "work stealing" `Quick test_work_stealing;
          Alcotest.test_case "least-loaded spawn" `Quick test_spawn_spreads_load;
          Alcotest.test_case "entry core restored" `Quick test_scheduler_restores_entry_core;
          Alcotest.test_case "ncores bounded" `Quick test_ncores_bounded_by_machine;
        ] );
      ( "per-core telemetry",
        [
          Alcotest.test_case "trace lanes" `Quick test_per_core_trace_lanes;
          Alcotest.test_case "attrib across cores" `Quick test_attrib_sums_across_cores;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_schedules ] );
    ]
