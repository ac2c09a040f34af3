(* Tests for the telemetry subsystem: the ring buffer, the
   tracing-never-perturbs-simulation invariant, per-cubicle cycle
   attribution, the exporters, and the property that Core.Stats —
   now a view over the bus's counter plane — agrees with the event
   stream on random workloads. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- ring buffer --------------------------------------------------------- *)

let test_ring_basic () =
  let r = Telemetry.Ring.create ~capacity:4 ~dummy:0 in
  check_int "empty" 0 (Telemetry.Ring.length r);
  Telemetry.Ring.push r 1;
  Telemetry.Ring.push r 2;
  check_int "len 2" 2 (Telemetry.Ring.length r);
  Alcotest.(check (list int)) "order" [ 1; 2 ] (Telemetry.Ring.to_list r);
  check_int "no drops" 0 (Telemetry.Ring.dropped r)

let test_ring_wraparound () =
  let r = Telemetry.Ring.create ~capacity:4 ~dummy:0 in
  for i = 1 to 6 do
    Telemetry.Ring.push r i
  done;
  check_int "len capped" 4 (Telemetry.Ring.length r);
  Alcotest.(check (list int)) "oldest overwritten" [ 3; 4; 5; 6 ] (Telemetry.Ring.to_list r);
  check_int "dropped" 2 (Telemetry.Ring.dropped r);
  check_int "total" 6 (Telemetry.Ring.total r)

let test_ring_clear () =
  let r = Telemetry.Ring.create ~capacity:4 ~dummy:0 in
  for i = 1 to 6 do
    Telemetry.Ring.push r i
  done;
  Telemetry.Ring.clear r;
  check_int "len" 0 (Telemetry.Ring.length r);
  check_int "dropped" 0 (Telemetry.Ring.dropped r);
  check_int "total" 0 (Telemetry.Ring.total r);
  Telemetry.Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Telemetry.Ring.to_list r)

(* --- a small two-cubicle world for workload tests ------------------------ *)

type world = {
  w_mon : Monitor.t;
  w_foo : Types.cid;
  w_bar : Types.cid;
  w_ctx : Monitor.ctx;
  w_buf : int;
  w_wid : Types.wid;
}

let build_world () =
  let mon = Monitor.create ~protection:Types.Full () in
  let foo =
    Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
  in
  let bar =
    Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2
  in
  let sh =
    Monitor.create_cubicle mon ~name:"SH" ~kind:Types.Shared ~heap_pages:4 ~stack_pages:0
  in
  Monitor.register_exports mon bar
    [ { Monitor.sym = "bar_peek"; fn = (fun c a -> Api.read_u8 c a.(0)); stack_bytes = 0 } ];
  Monitor.register_exports mon sh
    [ { Monitor.sym = "sh_fn"; fn = (fun _ _ -> 7); stack_bytes = 0 } ];
  Monitor.register_exports mon foo
    [ { Monitor.sym = "foo_fn"; fn = (fun _ _ -> 1); stack_bytes = 0 } ];
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 4096 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:4096;
  { w_mon = mon; w_foo = foo; w_bar = bar; w_ctx = ctx; w_buf = buf; w_wid = wid }

(* One workload step; every branch is total so random sequences run to
   completion whatever state they reach. *)
let apply w op =
  match op mod 7 with
  | 0 -> (
      try ignore (Monitor.call w.w_mon ~caller:w.w_foo (Monitor.import "bar_peek") [| w.w_buf |])
      with _ -> ())
  | 1 -> Api.window_open w.w_ctx w.w_wid w.w_bar
  | 2 -> Api.window_close w.w_ctx w.w_wid w.w_bar
  | 3 -> ignore (Monitor.call w.w_mon ~caller:w.w_foo (Monitor.import "sh_fn") [||])
  | 4 ->
      (* touch the buffer as its owner: faults back (trap-and-map) when
         a previous call migrated the page to BAR *)
      Monitor.run_as w.w_mon w.w_foo (fun () -> Api.write_u8 w.w_ctx w.w_buf 1)
  | 5 -> (
      try ignore (Monitor.call w.w_mon ~caller:w.w_foo (Monitor.import "nosuch") [||])
      with _ -> ())
  | _ -> ignore (Monitor.call w.w_mon ~caller:w.w_bar (Monitor.import "foo_fn") [||])

let run_workload ?(tracing = false) ?(sample = 1) ?stream_into ?(latency = false) ops =
  let w = build_world () in
  let bus = Monitor.bus w.w_mon in
  Stats.reset (Monitor.stats w.w_mon);
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_tracing bus tracing;
  if sample > 1 then Telemetry.Bus.set_sampling bus ~every:sample;
  Option.iter
    (fun buf ->
      let st =
        Telemetry.Export.Stream.create
          ~names:(fun cid -> Monitor.cubicle_name w.w_mon cid)
          ~cycles_per_us:2200. ~write:(Buffer.add_string buf) ()
      in
      Telemetry.Bus.set_sink bus (Some (Telemetry.Export.Stream.entry st)))
    stream_into;
  if latency then Telemetry.Bus.set_latency bus (Some (Telemetry.Latency.create ()));
  List.iter (apply w) ops;
  w

let some_ops = [ 1; 0; 0; 2; 0; 4; 3; 5; 1; 0; 4; 2; 4; 0; 3 ]

(* --- tracing must not perturb the simulation ----------------------------- *)

let test_cycle_identity () =
  let observe w =
    ( (Hw.Cost.cycles (Monitor.cost w.w_mon), Hw.Cpu.fault_count (Monitor.cpu w.w_mon)),
      (Hw.Cpu.wrpkru_count (Monitor.cpu w.w_mon), Stats.retags (Monitor.stats w.w_mon)) )
  in
  let off = observe (run_workload ~tracing:false some_ops) in
  let on = observe (run_workload ~tracing:true some_ops) in
  let sampled = observe (run_workload ~tracing:true ~sample:4 some_ops) in
  let streamed =
    observe (run_workload ~tracing:true ~stream_into:(Buffer.create 4096) some_ops)
  in
  let with_latency = observe (run_workload ~tracing:true ~latency:true some_ops) in
  let chk what = Alcotest.(check (pair (pair int int) (pair int int))) what off in
  chk "tracing on/off bit-identical" on;
  chk "sampled tracing bit-identical" sampled;
  chk "streamed tracing bit-identical" streamed;
  chk "latency sink bit-identical" with_latency

(* --- attribution --------------------------------------------------------- *)

let test_attrib_sums_to_cycles () =
  let w = run_workload ~tracing:true some_ops in
  let cost = Monitor.cost w.w_mon in
  check_int "rows sum to Cost.cycles"
    (Hw.Cost.cycles cost)
    (Telemetry.Attrib.total cost.Hw.Cost.attrib);
  (* categories the workload certainly exercised *)
  check_bool "trampoline cycles billed" true
    (Telemetry.Attrib.category_total cost.Hw.Cost.attrib Telemetry.Attrib.Tramp > 0);
  check_bool "MPK cycles billed" true
    (Telemetry.Attrib.category_total cost.Hw.Cost.attrib Telemetry.Attrib.Mpk > 0);
  (* trap-and-map work during calls into BAR is billed to BAR's row *)
  check_bool "BAR row non-empty" true
    (Array.fold_left ( + ) 0 (Telemetry.Attrib.row cost.Hw.Cost.attrib ~cid:w.w_bar) > 0)

let test_attrib_reset () =
  let w = run_workload some_ops in
  let cost = Monitor.cost w.w_mon in
  Hw.Cost.reset cost;
  check_int "attrib reset with cost" 0 (Telemetry.Attrib.total cost.Hw.Cost.attrib);
  check_int "cycles reset" 0 (Hw.Cost.cycles cost)

(* --- Stats as a fold over the bus ---------------------------------------- *)

(* Everything the counter plane holds, rebuilt from the event stream:
   the totals, plus per-(caller, callee) counts from Call events and
   per-symbol counts from Call and Shared_call events. *)
let count_events bus =
  let calls = ref 0
  and shared = ref 0
  and faults = ref 0
  and retags = ref 0
  and window_ops = ref 0
  and rejected = ref 0
  and returns = ref 0
  and edges = Hashtbl.create 8
  and syms = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Telemetry.Bus.iter_events
    (fun { Telemetry.Bus.ev; _ } ->
      match ev with
      | Telemetry.Event.Call { caller; callee; sym } ->
          incr calls;
          bump edges (caller, callee);
          bump syms sym
      | Telemetry.Event.Return _ -> incr returns
      | Telemetry.Event.Shared_call { sym; _ } ->
          incr shared;
          bump syms sym
      | Telemetry.Event.Fault _ -> incr faults
      | Telemetry.Event.Retag _ -> incr retags
      | Telemetry.Event.Window _ -> incr window_ops
      | Telemetry.Event.Rejected _ -> incr rejected
      | _ -> ())
    bus;
  ( (!calls, !shared, !faults, !retags, !window_ops, !rejected, !returns),
    (edges, syms) )

let stats_match_events w =
  let bus = Monitor.bus w.w_mon in
  let st = Monitor.stats w.w_mon in
  let (calls, shared, faults, retags, window_ops, rejected, returns), (edges, syms) =
    count_events bus
  in
  (* [Stats.edges] lists every edge once, by count descending, ties by
     (caller, callee) *)
  let by_count ((e, n) : (int * int) * int) (e', n') =
    match Int.compare n' n with 0 -> compare e e' | c -> c
  in
  Telemetry.Bus.dropped bus = 0
  && calls = Stats.total_calls st
  && returns = calls
  && shared = Stats.shared_calls st
  && faults = Stats.faults st
  && retags = Stats.retags st
  && window_ops = Stats.window_ops st
  && rejected = Stats.rejected st
  && Hashtbl.fold
       (fun (caller, callee) n ok -> ok && n = Stats.calls_between st ~caller ~callee)
       edges true
  && Hashtbl.fold (fun sym n ok -> ok && n = Stats.calls_to_sym st sym) syms true
  && List.for_all (fun sym -> Stats.calls_to_sym st sym = 0) [ "nosuch"; "bar_" ]
  && Stats.edges st = List.sort by_count (Hashtbl.fold (fun e n acc -> (e, n) :: acc) edges [])

let test_stats_equal_events () =
  let w = run_workload ~tracing:true some_ops in
  check_bool "counters equal event stream" true (stats_match_events w)

let prop_stats_equal_events =
  QCheck.Test.make ~count:60
    ~name:"stats rebuilt from the event stream equal the counter plane"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) (int_range 0 6)))
    (fun ops -> stats_match_events (run_workload ~tracing:true ops))

(* --- TLB counters are read through, not synced --------------------------- *)

let test_tlb_read_through () =
  let w = build_world () in
  let cpu = Monitor.cpu w.w_mon in
  (* take the Stats value FIRST; reads later must still see live data *)
  let st = Monitor.stats w.w_mon in
  Hw.Tlb.reset_counters (Hw.Cpu.tlb cpu);
  Monitor.run_as w.w_mon w.w_foo (fun () ->
      for i = 0 to 999 do
        ignore (Hw.Cpu.read_u8 cpu (w.w_buf + (i land 0xFFF)))
      done);
  check_bool "hits visible without sync" true (Stats.tlb_hits st > 0);
  check_int "hits equal the machine's" (Hw.Tlb.hits (Hw.Cpu.tlb cpu)) (Stats.tlb_hits st);
  check_int "misses equal the machine's" (Hw.Tlb.misses (Hw.Cpu.tlb cpu)) (Stats.tlb_misses st)

(* On a two-core monitor the counters sum both cores' TLBs, and a reset
   zeroes both. *)
let test_tlb_every_core () =
  let mon = Monitor.create ~mem_bytes:(4 * 1024 * 1024) ~ncores:2 ~protection:Types.Full () in
  let cpu = Monitor.cpu mon in
  let st = Monitor.stats mon in
  let base = Hw.Addr.base_of_page (Hw.Cpu.npages cpu - 1) in
  Hw.Cpu.map_page cpu (Hw.Addr.page_of base) Hw.Page_table.perm_rw ~key:0;
  let reads core n =
    Hw.Cpu.set_core cpu core;
    for _ = 1 to n do
      ignore (Hw.Cpu.read_u8 cpu base)
    done
  in
  Stats.reset st;
  reads 0 3;
  reads 1 5;
  Hw.Cpu.set_core cpu 0;
  let per_core f = List.map f (Hw.Cpu.tlbs cpu) in
  Alcotest.(check (list int)) "per-core hits" [ 2; 4 ] (per_core Hw.Tlb.hits);
  check_int "hits of both cores" 6 (Stats.tlb_hits st);
  check_int "misses of both cores" 2 (Stats.tlb_misses st);
  Stats.reset st;
  reads 1 1;
  Hw.Cpu.set_core cpu 0;
  check_int "core 1's hits reset" 1 (Stats.tlb_hits st);
  check_int "core 1's misses reset" 0 (Stats.tlb_misses st)

(* --- standalone Stats (no machine) --------------------------------------- *)

let test_standalone_stats_tlb_zero () =
  let s = Stats.of_bus (Telemetry.Bus.create ()) in
  check_int "tlb hits 0 without machine" 0 (Stats.tlb_hits s);
  Alcotest.(check (float 0.0)) "hit rate 0" 0.0 (Stats.tlb_hit_rate s)

(* --- bus plumbing --------------------------------------------------------- *)

let test_bus_off_captures_nothing () =
  let w = run_workload ~tracing:false some_ops in
  let bus = Monitor.bus w.w_mon in
  check_int "nothing captured" 0 (Telemetry.Bus.captured bus);
  check_int "nothing emitted" 0 (Telemetry.Bus.total_emitted bus);
  (* ...but the counter plane saw everything *)
  check_bool "counters alive" true (Stats.total_calls (Monitor.stats w.w_mon) > 0)

let test_bus_timestamps_monotone () =
  let w = run_workload ~tracing:true some_ops in
  let last = ref min_int in
  let ok = ref true in
  Telemetry.Bus.iter_events
    (fun { Telemetry.Bus.at; _ } ->
      if at < !last then ok := false;
      last := at)
    (Monitor.bus w.w_mon);
  check_bool "cycle timestamps non-decreasing" true !ok

(* --- exporters ------------------------------------------------------------ *)

let test_export_trace_json () =
  let w = run_workload ~tracing:true some_ops in
  let entries = Telemetry.Bus.events (Monitor.bus w.w_mon) in
  let names cid = Monitor.cubicle_name w.w_mon cid in
  let json = Telemetry.Export.trace_json ~names ~cycles_per_us:2200. entries in
  check_bool "has traceEvents" true
    (String.length json > 0
    && contains_sub json "\"traceEvents\""
    && contains_sub json "\"ph\":\"B\""
    && contains_sub json "\"ph\":\"E\"");
  (* crude balance check: equally many begin and end slices *)
  let count affix =
    let n = ref 0 in
    let len = String.length affix in
    for i = 0 to String.length json - len do
      if String.sub json i len = affix then incr n
    done;
    !n
  in
  check_int "B/E slices balanced" (count "\"ph\":\"B\"") (count "\"ph\":\"E\"")

let test_export_folded () =
  let w = run_workload ~tracing:true some_ops in
  let entries = Telemetry.Bus.events (Monitor.bus w.w_mon) in
  let names cid = Monitor.cubicle_name w.w_mon cid in
  let folded = Telemetry.Export.folded_stacks ~names entries in
  let lines = String.split_on_char '\n' folded |> List.filter (fun l -> l <> "") in
  check_bool "has stacks" true (List.length lines > 0);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed folded line: %s" line
      | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          check_bool "positive cycle count" true (int_of_string v > 0))
    lines;
  check_bool "a BAR frame appears" true
    (List.exists (fun l -> contains_sub l "BAR:bar_peek") lines)

(* --- ring vs a list model (wraparound property) --------------------------- *)

(* Replays an arbitrary push/clear sequence against plain-list semantics
   of a bounded ring: to_list, iter, length, total and dropped must all
   agree, whatever the wrap pattern. op = 0 clears, anything else
   pushes. *)
let prop_ring_model =
  QCheck.Test.make ~count:300 ~name:"ring agrees with a list model under push/clear"
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 120) (int_range 0 100))))
    (fun (capacity, ops) ->
      let r = Telemetry.Ring.create ~capacity ~dummy:(-1) in
      let model = ref [] (* newest first *) and pushed = ref 0 in
      List.iter
        (fun op ->
          if op = 0 then begin
            Telemetry.Ring.clear r;
            model := [];
            pushed := 0
          end
          else begin
            Telemetry.Ring.push r op;
            model := op :: !model;
            incr pushed
          end)
        ops;
      let kept = List.rev (List.filteri (fun i _ -> i < capacity) !model) in
      let via_iter = ref [] in
      Telemetry.Ring.iter (fun v -> via_iter := v :: !via_iter) r;
      Telemetry.Ring.to_list r = kept
      && List.rev !via_iter = kept
      && Telemetry.Ring.length r = List.length kept
      && Telemetry.Ring.total r = !pushed
      && Telemetry.Ring.dropped r = !pushed - List.length kept)

(* --- histograms ----------------------------------------------------------- *)

let test_hist_empty () =
  let h = Telemetry.Hist.create () in
  check_int "count" 0 (Telemetry.Hist.count h);
  check_int "sum" 0 (Telemetry.Hist.sum h);
  check_int "min" 0 (Telemetry.Hist.min_value h);
  check_int "max" 0 (Telemetry.Hist.max_value h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Telemetry.Hist.mean h);
  List.iter
    (fun q -> check_int "percentile of empty" 0 (Telemetry.Hist.percentile h q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_hist_single () =
  let h = Telemetry.Hist.create () in
  Telemetry.Hist.add h 12345;
  check_int "count" 1 (Telemetry.Hist.count h);
  check_int "min" 12345 (Telemetry.Hist.min_value h);
  check_int "max" 12345 (Telemetry.Hist.max_value h);
  (* clamping into [min,max] makes a single sample exact everywhere *)
  List.iter
    (fun q -> check_int "single sample exact" 12345 (Telemetry.Hist.percentile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_hist_boundaries () =
  (* values below 16 are exact, and every 16-sub-bucket boundary above
     is its bucket's lower bound — both report exactly even when a far
     larger sample keeps the clamp from helping *)
  List.iter
    (fun v ->
      let h = Telemetry.Hist.create () in
      Telemetry.Hist.add h v;
      Telemetry.Hist.add h v;
      Telemetry.Hist.add h 1_000_000;
      check_int (Printf.sprintf "p50 of boundary %d" v) v (Telemetry.Hist.percentile h 0.5))
    [ 0; 1; 15; 16; 17; 31; 32; 48; 64; 96; 1024; 1088; 65536 ];
  (* negative samples clamp to 0 but are counted *)
  let h = Telemetry.Hist.create () in
  Telemetry.Hist.add h (-5);
  check_int "negative clamps to 0" 0 (Telemetry.Hist.percentile h 1.0);
  check_int "still counted" 1 (Telemetry.Hist.count h);
  (* percentiles are monotone in q and bounded by min/max *)
  let h = Telemetry.Hist.create () in
  List.iter (Telemetry.Hist.add h) [ 3; 700; 41; 90_000; 41; 8; 555_555; 64 ];
  let last = ref 0 in
  List.iter
    (fun q ->
      let p = Telemetry.Hist.percentile h q in
      check_bool "monotone" true (p >= !last);
      check_bool "within [min,max]" true
        (p >= Telemetry.Hist.min_value h && p <= Telemetry.Hist.max_value h);
      last := p)
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  check_int "p0 is min" (Telemetry.Hist.min_value h) (Telemetry.Hist.percentile h 0.0);
  check_int "p100 is max" (Telemetry.Hist.max_value h) (Telemetry.Hist.percentile h 1.0)

(* Any percentile of a log-bucketed histogram is the lower bound of the
   right bucket: never above the true sample, never more than one
   sub-bucket width (1/16th of the bucket's power of two) below it. *)
let prop_hist_quantisation =
  QCheck.Test.make ~count:300 ~name:"median within one sub-bucket of the true sample"
    (QCheck.make QCheck.Gen.(int_range 0 2_000_000))
    (fun v ->
      let h = Telemetry.Hist.create () in
      Telemetry.Hist.add h v;
      Telemetry.Hist.add h v;
      Telemetry.Hist.add h 4_000_000;
      let p = Telemetry.Hist.percentile h 0.5 in
      p <= v && float_of_int (v - p) <= Float.max 1. (float_of_int v /. 16.))

let test_export_hdr () =
  (* empty histogram: header only, no rows, no footer *)
  let empty = Telemetry.Export.hdr (Telemetry.Hist.create ()) in
  check_bool "empty has header" true
    (String.length empty > 0
    && String.sub empty 0 12 = "       Value");
  check_int "empty has one line" 2 (List.length (String.split_on_char '\n' empty) - 1);
  let h = Telemetry.Hist.create () in
  List.iter (Telemetry.Hist.add h) [ 3; 700; 41; 90_000; 41; 8; 555_555; 64 ];
  let out = Telemetry.Export.hdr h in
  let lines = String.split_on_char '\n' out in
  let rows =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = ' ' && String.trim l <> "" && l.[7] <> 'V')
      lines
  in
  (* one cumulative row per non-empty bucket; 8 distinct-bucket samples
     minus the two 41s sharing a bucket *)
  check_int "one row per non-empty bucket" 7 (List.length rows);
  (* cumulative TotalCount is monotone and ends at the sample count *)
  let counts =
    List.map
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (fun s -> s <> "") with
        | _value :: _q :: total :: _ -> int_of_string total
        | _ -> Alcotest.fail ("unparseable hdr row: " ^ l))
      rows
  in
  let last = ref 0 in
  List.iter
    (fun c ->
      check_bool "TotalCount monotone" true (c > !last);
      last := c)
    counts;
  check_int "final TotalCount is the sample count" (Telemetry.Hist.count h) !last;
  (* the final row reports the exact tracked maximum at percentile 1.0 *)
  let final = List.nth rows (List.length rows - 1) in
  (match String.split_on_char ' ' final |> List.filter (fun s -> s <> "") with
  | value :: q :: _ ->
      check_bool "final value is max" true
        (float_of_string value = float_of_int (Telemetry.Hist.max_value h));
      check_bool "final percentile is 1.0" true (float_of_string q = 1.0)
  | _ -> Alcotest.fail "unparseable final hdr row");
  (* footer carries Max / Total count matching the histogram *)
  check_bool "footer mean" true
    (List.exists (fun l -> String.length l > 7 && String.sub l 0 7 = "#[Mean ") lines);
  let max_line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "#[Max ") lines
  in
  check_bool "footer max and total" true
    (let parts =
       String.split_on_char ' ' max_line |> List.filter (fun s -> s <> "")
     in
     List.exists
       (fun p ->
         p = Printf.sprintf "%.3f," (float_of_int (Telemetry.Hist.max_value h)))
       parts
     && List.exists (fun p -> p = Printf.sprintf "%d]" (Telemetry.Hist.count h)) parts)

(* --- event-plane sampling ------------------------------------------------- *)

let test_bus_sampling () =
  let bus = Telemetry.Bus.create ~capacity:64 () in
  Telemetry.Bus.set_tracing bus true;
  Telemetry.Bus.set_sampling bus ~every:3;
  for i = 1 to 10 do
    Telemetry.Bus.emit bus (Telemetry.Event.Mark (string_of_int i))
  done;
  check_int "captured 1-in-3" 4 (Telemetry.Bus.captured bus);
  check_int "sampled out" 6 (Telemetry.Bus.sampled_out bus);
  (* deterministic: the first emission after set_sampling is kept *)
  (match Telemetry.Bus.events bus with
  | { Telemetry.Bus.ev = Telemetry.Event.Mark "1"; _ } :: _ -> ()
  | _ -> Alcotest.fail "first emission after set_sampling was not kept");
  Alcotest.check_raises "every < 1 rejected"
    (Invalid_argument "Bus.set_sampling: every must be >= 1") (fun () ->
      Telemetry.Bus.set_sampling bus ~every:0);
  (* clear_ring resets the stride so captures stay deterministic *)
  Telemetry.Bus.clear_ring bus;
  check_int "sampled_out cleared" 0 (Telemetry.Bus.sampled_out bus);
  Telemetry.Bus.emit bus (Telemetry.Event.Mark "fresh");
  check_int "first post-clear emission kept" 1 (Telemetry.Bus.captured bus);
  (* counter plane ignores sampling *)
  let w = run_workload ~tracing:true ~sample:1000 some_ops in
  check_bool "counters exact under sampling" true
    (Stats.total_calls (Monitor.stats w.w_mon) > 0
    && Telemetry.Bus.captured (Monitor.bus w.w_mon)
       < Telemetry.Bus.sampled_out (Monitor.bus w.w_mon)
         + Telemetry.Bus.captured (Monitor.bus w.w_mon))

(* --- latency plane -------------------------------------------------------- *)

let latency_counts_equal_edges w =
  let bus = Monitor.bus w.w_mon in
  match Telemetry.Bus.latency bus with
  | None -> Alcotest.fail "latency sink missing"
  | Some lat ->
      check_int "no unmatched returns" 0 (Telemetry.Latency.unmatched lat);
      check_int "none in flight" 0 (Telemetry.Latency.in_flight lat);
      let edges = Telemetry.Bus.edges bus in
      check_bool "workload produced edges" true (edges <> []);
      List.iter
        (fun ((caller, callee), n) ->
          let c =
            match Telemetry.Latency.edge lat ~caller ~callee with
            | Some h -> Telemetry.Hist.count h
            | None -> 0
          in
          check_int (Printf.sprintf "edge %d->%d count" caller callee) n c)
        edges;
      check_int "observed = sum of edges"
        (List.fold_left (fun a (_, n) -> a + n) 0 edges)
        (Telemetry.Latency.observed lat)

let test_latency_counts () = latency_counts_equal_edges (run_workload ~latency:true some_ops)

let test_latency_counts_sampled () =
  (* the latency plane is fed from the counter plane, so event-plane
     sampling must not cost it a single sample *)
  latency_counts_equal_edges (run_workload ~tracing:true ~sample:7 ~latency:true some_ops)

let test_latency_positive () =
  let w = run_workload ~latency:true some_ops in
  match Telemetry.Bus.latency (Monitor.bus w.w_mon) with
  | None -> Alcotest.fail "latency sink missing"
  | Some lat ->
      List.iter
        (fun ((_, _), h) ->
          check_bool "call latency is positive cycles" true (Telemetry.Hist.min_value h > 0))
        (Telemetry.Latency.edges lat)

(* --- streamed export ------------------------------------------------------ *)

let count_sub haystack needle =
  let n = ref 0 in
  let len = String.length needle in
  for i = 0 to String.length haystack - len do
    if String.sub haystack i len = needle then incr n
  done;
  !n

let test_stream_matches_ring_replay () =
  let w = run_workload ~tracing:true some_ops in
  let entries = Telemetry.Bus.events (Monitor.bus w.w_mon) in
  let names cid = Monitor.cubicle_name w.w_mon cid in
  let buf = Buffer.create 4096 in
  let st =
    Telemetry.Export.Stream.create ~names ~cycles_per_us:2200.
      ~write:(Buffer.add_string buf) ()
  in
  List.iter (Telemetry.Export.Stream.entry st) entries;
  Telemetry.Export.Stream.finish st;
  Telemetry.Export.Stream.finish st (* idempotent *);
  Alcotest.(check string) "byte-identical to trace_json"
    (Telemetry.Export.trace_json ~names ~cycles_per_us:2200. entries)
    (Buffer.contents buf);
  Alcotest.check_raises "entry after finish rejected"
    (Invalid_argument "Export.Stream.entry: stream already finished") (fun () ->
      Telemetry.Export.Stream.entry st (List.hd entries))

let test_stream_live_sink_matches_ring () =
  let buf = Buffer.create 4096 in
  let w = run_workload ~tracing:true ~stream_into:buf some_ops in
  let bus = Monitor.bus w.w_mon in
  Telemetry.Bus.set_sink bus None;
  check_int "ring kept everything" 0 (Telemetry.Bus.dropped bus);
  (* the sink never saw finish; replaying the ring through trace_json
     must reproduce the streamed bytes plus only the trailer *)
  let names cid = Monitor.cubicle_name w.w_mon cid in
  let full =
    Telemetry.Export.trace_json ~names ~cycles_per_us:2200. (Telemetry.Bus.events bus)
  in
  let streamed = Buffer.contents buf in
  check_bool "streamed output is a prefix of the ring export" true
    (String.length streamed <= String.length full
    && String.sub full 0 (String.length streamed) = streamed)

let entry ?(core = 0) at ev = { Telemetry.Bus.at; core; seq = 0; ev }

let test_stream_orphan_return_dropped () =
  let names cid = "C" ^ string_of_int cid in
  let entries =
    [
      entry 10 (Telemetry.Event.Return { caller = 0; callee = 1; sym = "wrapped" });
      entry 20 (Telemetry.Event.Call { caller = 0; callee = 1; sym = "g" });
      entry 30 (Telemetry.Event.Return { caller = 0; callee = 1; sym = "g" });
    ]
  in
  let json = Telemetry.Export.trace_json ~names ~cycles_per_us:1. entries in
  check_int "orphan E dropped" 1 (count_sub json "\"ph\":\"E\"");
  check_int "real slice kept" 1 (count_sub json "\"ph\":\"B\"")

let test_stream_synthesizes_close () =
  let names cid = "C" ^ string_of_int cid in
  let buf = Buffer.create 512 in
  let st =
    Telemetry.Export.Stream.create ~names ~cycles_per_us:1. ~write:(Buffer.add_string buf) ()
  in
  Telemetry.Export.Stream.entry st
    (entry 10 (Telemetry.Event.Call { caller = 0; callee = 1; sym = "f" }));
  Telemetry.Export.Stream.entry st
    (entry 20 (Telemetry.Event.Call { caller = 1; callee = 2; sym = "g" }));
  check_int "two slices open" 2 (Telemetry.Export.Stream.open_slices st);
  Telemetry.Export.Stream.finish st;
  check_int "all closed" 0 (Telemetry.Export.Stream.open_slices st);
  let json = Buffer.contents buf in
  check_int "E synthesized for every B" (count_sub json "\"ph\":\"B\"")
    (count_sub json "\"ph\":\"E\"")

let test_folded_until_tail () =
  let names cid = "C" ^ string_of_int cid in
  let entries = [ entry 100 (Telemetry.Event.Call { caller = 0; callee = 1; sym = "f" }) ] in
  let with_tail = Telemetry.Export.folded_stacks ~names ~until:250 entries in
  check_bool "tail cycles attributed to the open stack" true
    (contains_sub with_tail "C1:f 150");
  let without = Telemetry.Export.folded_stacks ~names entries in
  check_bool "tail unattributed without ~until" false (contains_sub without "150")

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wrap-around + drops" `Quick test_ring_wraparound;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          QCheck_alcotest.to_alcotest prop_ring_model;
        ] );
      ( "hist",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample exact" `Quick test_hist_single;
          Alcotest.test_case "bucket boundaries" `Quick test_hist_boundaries;
          QCheck_alcotest.to_alcotest prop_hist_quantisation;
        ] );
      ( "identity",
        [ Alcotest.test_case "tracing on/off bit-identical" `Quick test_cycle_identity ] );
      ( "sampling", [ Alcotest.test_case "1-in-n deterministic" `Quick test_bus_sampling ] );
      ( "latency",
        [
          Alcotest.test_case "counts equal calls_between" `Quick test_latency_counts;
          Alcotest.test_case "exact under sampling" `Quick test_latency_counts_sampled;
          Alcotest.test_case "latencies positive" `Quick test_latency_positive;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "rows sum to Cost.cycles" `Quick test_attrib_sums_to_cycles;
          Alcotest.test_case "reset" `Quick test_attrib_reset;
        ] );
      ( "stats-vs-events",
        [
          Alcotest.test_case "fixed workload" `Quick test_stats_equal_events;
          QCheck_alcotest.to_alcotest prop_stats_equal_events;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "read-through, no sync" `Quick test_tlb_read_through;
          Alcotest.test_case "standalone stats" `Quick test_standalone_stats_tlb_zero;
          Alcotest.test_case "every core counted" `Quick test_tlb_every_core;
        ] );
      ( "bus",
        [
          Alcotest.test_case "off captures nothing" `Quick test_bus_off_captures_nothing;
          Alcotest.test_case "timestamps monotone" `Quick test_bus_timestamps_monotone;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace json" `Quick test_export_trace_json;
          Alcotest.test_case "hdr percentile dump" `Quick test_export_hdr;
          Alcotest.test_case "folded stacks" `Quick test_export_folded;
          Alcotest.test_case "folded ~until attributes the tail" `Quick
            test_folded_until_tail;
        ] );
      ( "stream",
        [
          Alcotest.test_case "replay byte-matches trace_json" `Quick
            test_stream_matches_ring_replay;
          Alcotest.test_case "live sink prefixes ring export" `Quick
            test_stream_live_sink_matches_ring;
          Alcotest.test_case "orphan E dropped" `Quick test_stream_orphan_return_dropped;
          Alcotest.test_case "open slices closed at finish" `Quick
            test_stream_synthesizes_close;
        ] );
    ]
