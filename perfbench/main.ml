(* Two-clock benchmark: host cost and simulated cycles per operation.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One workload per process. The measured phase runs untraced for S
   seconds (and at least max(1000, K) operations, K being the
   workload's simulated-cycle window) and yields the end-to-end
   metrics on both clocks. With --trace 1 a second, fresh instance
   replays the first K operations with telemetry tracing on and a
   benchmark-owned bus sink, which yields the per-layer metrics; the
   simulated cycles of the two runs must be identical.

   Self-checks exit non-zero: unknown or malformed arguments, a
   simulated-cycle mismatch between the traced and untraced runs,
   attribution categories that do not add up to the cycle count, and
   any rejected access. Operations that fail their oracle are counted
   in "failed".

   The last line of standard output is the JSON result; the full
   results (and, when traced, the spans and counts) are written to
   .bench_out/ in the working directory. *)

open Cubicle

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt
let fatal fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: FATAL: " ^ s); exit 1) fmt

(* --- arguments ---------------------------------------------------------- *)

type args = { workload : Workload.spec; seed : int; seconds : int; trace : bool }

let flags = [ "--workload"; "--seed"; "--seconds"; "--trace" ]
let out_dir = ".bench_out"

let parse_args argv =
  let nat flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 && String.for_all (fun c -> c >= '0' && c <= '9') v -> n
    | _ -> die "%s expects a non-negative integer, got %S" flag v
  in
  let rec go acc = function
    | [] -> acc
    | flag :: _ when not (List.mem flag flags) -> die "unknown argument %S" flag
    | [ flag ] -> die "%s needs a value" flag
    | flag :: v :: rest ->
        if List.mem_assoc flag acc then die "%s given twice" flag;
        go ((flag, v) :: acc) rest
  in
  let kv = go [] argv in
  List.iter (fun flag -> if not (List.mem_assoc flag kv) then die "%s is required" flag) flags;
  let get flag = List.assoc flag kv in
  let workload =
    let w = get "--workload" in
    match List.find_opt (fun s -> s.Workload.name = w) Workload.all with
    | Some s -> s
    | None ->
        die "unknown workload %S (one of %s)" w
          (String.concat ", " (List.map (fun s -> s.Workload.name) Workload.all))
  in
  let seed = nat "--seed" (get "--seed") in
  let seconds = nat "--seconds" (get "--seconds") in
  if seconds < 1 then die "--seconds must be at least 1";
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | v -> die "--trace expects 0 or 1, got %S" v
  in
  { workload; seed; seconds; trace }

(* --- counters read around every phase ----------------------------------- *)

let cat_key c = "sim." ^ Telemetry.Attrib.cat_name c

let counters (inst : Workload.t) =
  let mon = inst.mon in
  let stats = Monitor.stats mon in
  let cost = Monitor.cost mon in
  let attrib = Hw.Cost.attrib cost in
  let km f = match Monitor.keymux mon with Some k -> f (Hw.Keymux.stats k) | None -> 0 in
  let vfs =
    if Monitor.cubicle_exists mon "VFSCORE" then Some (Monitor.lookup_cubicle mon "VFSCORE")
    else None
  in
  let gc f = int_of_float (f (Gc.quick_stat ())) in
  Array.of_list
    ([ ("sim.cycles", fun () -> Hw.Cost.cycles cost) ]
    @ List.map
        (fun c -> (cat_key c, fun () -> Telemetry.Attrib.category_total attrib c))
        Telemetry.Attrib.categories
    @ [
        ("calls", fun () -> Stats.total_calls stats);
        ("shared_calls", fun () -> Stats.shared_calls stats);
        ("window_ops", fun () -> Stats.window_ops stats);
        ("faults", fun () -> Stats.faults stats);
        ("retags", fun () -> Stats.retags stats);
        ("wrpkru", fun () -> Hw.Cpu.wrpkru_count (Monitor.cpu mon));
        ("tlb_hits", fun () -> Stats.tlb_hits stats);
        ("tlb_misses", fun () -> Stats.tlb_misses stats);
        ("tlb_flushes", fun () -> Stats.tlb_flushes stats);
        ("km.fault_ins", fun () -> km (fun s -> s.Hw.Keymux.fault_ins));
        ("km.evictions", fun () -> km (fun s -> s.Hw.Keymux.evictions));
        ("km.retag_pages", fun () -> km (fun s -> s.Hw.Keymux.retag_pages));
        ( "vfs_calls",
          fun () -> match vfs with Some cid -> Stats.calls_into stats cid | None -> 0 );
        ( "gc.words",
          fun () -> gc (fun s -> s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) );
        ("gc.major", fun () -> gc (fun s -> float_of_int s.Gc.major_collections));
      ])

let snap cs = Array.map (fun (_, f) -> f ()) cs
(* Position of a counter; every [counters] array has the same layout. *)
let index names name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

(* --- one measured phase --------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.

type phase = {
  n : int;
  failed : int;
  wall_ns : int;  (* audits excluded *)
  wall_k_ns : int;  (* over the first [k] operations *)
  lat : Vec.t;  (* host ns per operation *)
  ends : Vec.t;  (* phase clock (audits excluded) at the end of each step *)
  cyc : Vec.t;  (* simulated cycles per operation *)
  tags : Vec.t;
  upkeep_ns : int;  (* in [before] and [after] *)
  probe_at : Vec.t;  (* phase clock of each machine-speed probe *)
  probe_ns : Vec.t;
  bytes : int;
  total : int array;  (* counter deltas, audits excluded *)
  prefix : int array;  (* the same over the first [k] operations *)
  rss_k_mb : float;  (* peak resident set once the first [k] operations ran *)
}

let probe_every_ns = 100_000_000

let run_phase ?spans (inst : Workload.t) ~k ~stop =
  let cs = counters inst in
  let cost = Monitor.cost inst.mon in
  let bus = Monitor.bus inst.mon in
  let lat = Vec.create () and cyc = Vec.create () and tags = Vec.create () in
  let ends = Vec.create () in
  let probe_at = Vec.create () and probe_ns = Vec.create () and next_probe = ref 0 in
  let failed = ref 0 and bytes = ref 0 and n = ref 0 and upkeep = ref 0 in
  (* uncovered span time goes to the cubicle the interval ran as *)
  let attribute owner ns =
    Option.iter (fun sp -> Spans.op_done sp ~driver:owner ~wall_ns:ns) spans
  in
  let excluded = Array.make (Array.length cs) 0 and excl_ns = ref 0 in
  let prefix = ref [||] and wall_k = ref 0 and rss_k = ref 0. in
  let start = snap cs in
  let t_start = Clock.now_ns () in
  let elapsed () = Clock.now_ns () - t_start - !excl_ns in
  let delta s = Array.mapi (fun j v -> v - start.(j) - excluded.(j)) s in
  while not (stop !n (elapsed ())) do
    let i = !n in
    (let el = elapsed () in
     if el >= !next_probe then begin
       let tp = Clock.now_ns () in
       Vec.push probe_at el;
       Vec.push probe_ns (Probe.run ());
       excl_ns := !excl_ns + (Clock.now_ns () - tp);
       next_probe := el + probe_every_ns
     end);
    let t_step = Clock.now_ns () in
    let ok =
      try
        inst.before i;
        let c0 = Hw.Cost.cycles cost in
        let t0 = Clock.now_ns () in
        attribute inst.upkeep_owner (t0 - t_step);
        let o = inst.op i in
        let t1 = Clock.now_ns () in
        Vec.push cyc (Hw.Cost.cycles cost - c0);
        Vec.push lat (t1 - t0);
        Vec.push tags o.tag;
        bytes := !bytes + o.bytes;
        attribute inst.driver (t1 - t0);
        let changed = inst.after i in
        let ta = Clock.now_ns () in
        attribute inst.upkeep_owner (ta - t1);
        if changed then Option.iter Spans.forget_cids spans;
        upkeep := !upkeep + (t0 - t_step) + (ta - t1);
        let ok = o.check () in
        let ok =
          match inst.audit i with
          | None -> ok
          | Some audit ->
            if spans <> None then Telemetry.Bus.set_tracing bus false;
            let s0 = snap cs in
            let r = audit () in
            let s1 = snap cs in
            Array.iteri (fun j v -> excluded.(j) <- excluded.(j) + v - s0.(j)) s1;
            if spans <> None then Telemetry.Bus.set_tracing bus true;
            r && ok
        in
        excl_ns := !excl_ns + (Clock.now_ns () - ta);
        ok
      with e ->
        if !failed = 0 then
          Printf.eprintf "perfbench: operation %d raised %s\n%!" i (Printexc.to_string e);
        (* keep the per-operation vectors aligned: a failed operation
           counts with the time it took to fail *)
        if Vec.length lat = i then begin
          Vec.push lat (Clock.now_ns () - t_step);
          Vec.push cyc 0;
          Vec.push tags 0
        end;
        false
    in
    if not ok then incr failed;
    Vec.push ends (elapsed ());
    incr n;
    if !n = k then begin
      prefix := delta (snap cs);
      wall_k := elapsed ();
      let tr = Clock.now_ns () in
      rss_k := peak_rss_mb ();
      excl_ns := !excl_ns + (Clock.now_ns () - tr)
    end
  done;
  let wall_ns = elapsed () in
  {
    n = !n;
    failed = !failed;
    wall_ns;
    wall_k_ns = !wall_k;
    lat;
    ends;
    cyc;
    tags;
    upkeep_ns = !upkeep;
    probe_at;
    probe_ns;
    bytes = !bytes;
    total = delta (snap cs);
    prefix = !prefix;
    rss_k_mb = !rss_k;
  }

(* --- helpers ---------------------------------------------------------------- *)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let us ns = fi ns /. 1000.

let tag_p50 (p : phase) tag =
  let v = Vec.create () in
  for j = 0 to p.n - 1 do
    if Vec.get p.tags j = tag then Vec.push v (Vec.get p.lat j)
  done;
  us (Vec.percentile v 0.5)

let sum_vec v =
  let s = ref 0 in
  for j = 0 to Vec.length v - 1 do
    s := !s + Vec.get v j
  done;
  !s

let guard_entries (inst : Workload.t) =
  let syms = Trampoline.syms inst.trampolines in
  List.fold_left
    (fun acc cid ->
      List.fold_left
        (fun acc sym -> if Trampoline.has_guard inst.trampolines cid sym then acc + 1 else acc)
        acc syms)
    0 (Monitor.live_cids inst.mon)

(* The simulated clock checks itself: attribution categories add up to
   the cycle count, and no access was rejected. *)
let check_sim (inst : Workload.t) names label v =
  let cats =
    List.fold_left (fun acc c -> acc + v.(index names (cat_key c))) 0 Telemetry.Attrib.categories
  in
  let cycles = v.(index names "sim.cycles") in
  if cats <> cycles then
    fatal "%s: attribution categories sum to %d cycles, the machine counted %d" label cats cycles;
  let rejected = Stats.rejected (Monitor.stats inst.mon) in
  if rejected <> 0 then fatal "%s: the monitor rejected %d accesses" label rejected

(* Host-clock end-to-end figures. The phase is cut into windows of
   equal operation count; each window is scaled to the reference machine
   speed by the probes taken during it (see Probe), and each figure is
   the median over windows. ops_per_s and host_us_mean use 20 windows;
   for host_us_p99 the windows hold at least [min_ops] operations each
   (at most 20), so each keeps ten samples beyond its p99. The figures
   as measured, and every window's raw figures and speed, are in the
   results file.

   The typical latency is a mean, not a median: tenant_churn's
   latencies fall into clusters (key faults in or not, and more) with
   close to half of the operations on either side of the gap between
   two of them, so its median jumped between the clusters from window
   to window and from run to run, while the mean moves only as far as
   the operations themselves do. *)
type window = { speed : float; rate : float; mean : float; p99 : float }

let window_rows (p : phase) w =
  List.init w (fun j ->
      let lo = j * p.n / w and hi = (j + 1) * p.n / w in
      let t_lo = if lo = 0 then 0 else Vec.get p.ends (lo - 1) in
      let t_hi = Vec.get p.ends (hi - 1) in
      (* the probes inside the window, or else the last one before it *)
      let probes = ref [] and before = ref (Vec.get p.probe_ns 0) in
      for c = 0 to Vec.length p.probe_at - 1 do
        let at = Vec.get p.probe_at c in
        if at <= t_lo then before := Vec.get p.probe_ns c
        else if at <= t_hi then probes := fi (Vec.get p.probe_ns c) :: !probes
      done;
      let s = Vec.sorted_range p.lat lo hi in
      {
        speed = Probe.speed (if !probes = [] then [ fi !before ] else !probes);
        rate = fi (hi - lo) /. (fi (t_hi - t_lo) /. 1e9);
        mean = us (Array.fold_left ( + ) 0 s) /. fi (hi - lo);
        p99 = us (Vec.percentile_sorted s 0.99);
      })

let host_figures (p : phase) ~min_ops =
  let short = window_rows p (max 1 (min 20 (p.n / 20))) in
  let long = window_rows p (max 1 (min 20 (p.n / min_ops))) in
  let med rows f = Vec.median_float (List.map f rows) in
  let scaled =
    ( med short (fun w -> w.rate /. w.speed),
      med short (fun w -> w.mean *. w.speed),
      med long (fun w -> w.p99 *. w.speed) )
  in
  let raw = (med short (fun w -> w.rate), med short (fun w -> w.mean), med long (fun w -> w.p99)) in
  (short, long, scaled, raw)

(* --- main -------------------------------------------------------------------- *)

let setup_repeats = 5
let min_ops = 1000
let max_phase_ns = 150_000_000_000

let setup_once (spec : Workload.spec) seed =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let inst = spec.setup ~seed in
  (inst, Clock.now_ns () - t0)

(* What the untraced run leaves behind: plain data only, so its
   simulated machine can be collected before the traced run boots. *)
type untraced = {
  setup_s : float;  (* median over the repeats *)
  setup_samples : float list;
  boot_ms : float;
  names : string array;  (* counter layout of [pa.total] and [pa.prefix] *)
  pa : phase;
  guards : int;
  spawn_ns : Vec.t;
  teardown_ns : Vec.t;
  rss_mb : float;
      (* once the first [k] operations ran: the resident set of
         tenant_churn keeps growing with every respawn, so a peak taken
         at the end would grow with the run's length and the host's
         speed *)
}

let run_untraced (spec : Workload.spec) (a : args) =
  let k = spec.sim_window in
  let setups = ref [] and boots = ref [] and last = ref None in
  for _ = 1 to setup_repeats do
    last := None;
    let inst, dt = setup_once spec a.seed in
    setups := (fi dt /. 1e9) :: !setups;
    boots := (fi inst.boot_ns /. 1e6) :: !boots;
    last := Some inst
  done;
  let inst = Option.get !last in
  last := None;
  Gc.full_major ();
  let min_n = max min_ops k in
  let pa =
    run_phase inst ~k ~stop:(fun n el ->
        (n >= min_n && el >= a.seconds * 1_000_000_000) || (n >= min_ops && el >= max_phase_ns))
  in
  if pa.n < k then fatal "only %d operations ran, the simulated-cycle window needs %d" pa.n k;
  let names = Array.map fst (counters inst) in
  check_sim inst names "untraced run" pa.total;
  check_sim inst names "untraced run (window)" pa.prefix;
  {
    setup_s = Vec.median_float !setups;
    setup_samples = List.rev !setups;
    boot_ms = Vec.median_float !boots;
    names;
    pa;
    guards = guard_entries inst;
    spawn_ns = inst.spawn_ns;
    teardown_ns = inst.teardown_ns;
    rss_mb = pa.rss_k_mb;
  }

let layers =
  [
    ("libos", "VFSCORE"); ("libos", "RAMFS"); ("libos", "LWIP"); ("libos", "NETDEV");
    ("libos", "ALLOC"); ("libos", "TIME"); ("libos", "PLAT"); ("minidb", "APP");
    ("httpd", "NGINX"); ("httpd", "GW"); ("httpd", "TWEB"); ("httpd", "TFS");
  ]

(* The traced replay of the first k operations, on a fresh instance:
   returns the per-layer metrics and the spans file. *)
let run_traced (spec : Workload.spec) (a : args) (u : untraced) =
  let k = spec.sim_window and pa = u.pa in
  Gc.full_major ();
  let inst, _ = setup_once spec a.seed in
  let sp = Spans.create inst.mon in
  let bus = Monitor.bus inst.mon in
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_sink bus (Some (Spans.sink sp));
  Telemetry.Bus.set_tracing bus true;
  let pb = run_phase ~spans:sp inst ~k ~stop:(fun n _ -> n >= k) in
  Telemetry.Bus.set_tracing bus false;
  Telemetry.Bus.set_sink bus None;
  let names = u.names in
  check_sim inst names "traced run" pb.total;
  if sp.unmatched > 0 then fatal "%d trampoline returns without a matching call" sp.unmatched;
  (* the simulated clock must not see the tracing *)
  for j = 0 to k - 1 do
    if Vec.get pa.cyc j <> Vec.get pb.cyc j then
      fatal "operation %d: %d simulated cycles untraced, %d traced" j (Vec.get pa.cyc j)
        (Vec.get pb.cyc j)
  done;
  Array.iteri
    (fun j name ->
      if String.length name > 4 && String.sub name 0 4 = "sim." && pa.prefix.(j) <> pb.prefix.(j)
      then fatal "%s: %d cycles untraced, %d traced" name pa.prefix.(j) pb.prefix.(j))
    names;
  let ops = fi pb.n in
  let b name = fi pb.total.(index names name) in
  let per_op name = b name /. ops in
  let untraced name = fi pa.total.(index names name) /. fi pa.n in
  let churn = sum_vec inst.spawn_ns + sum_vec inst.teardown_ns in
  let spawn_p50 = us (Vec.percentile u.spawn_ns 0.5) in
  let teardown_p50 = us (Vec.percentile u.teardown_ns 0.5) in
  let pager op = fi (Spans.pager_count sp op) in
  let hits = pager Telemetry.Event.Cache_hit and misses = pager Telemetry.Event.Cache_miss in
  let only name tag = if spec.name = name then tag_p50 pa tag else 0. in
  let metrics =
    [
      ("sim_cycles_per_op", fi pb.prefix.(index names "sim.cycles") /. fi k, "cycles/op");
      ("sim_cycles_p99", fi (Vec.percentile pb.cyc 0.99), "cycles");
    ]
    @ List.map
        (fun c ->
          ( Printf.sprintf "sim.%s_cycles_per_op" (Telemetry.Attrib.cat_name c),
            fi pb.prefix.(index names (cat_key c)) /. fi k,
            "cycles/op" ))
        Telemetry.Attrib.categories
    @ [
        ("hw.tlb.hit_rate", ratio (b "tlb_hits") (b "tlb_hits" +. b "tlb_misses"), "ratio");
        ("hw.tlb.flushes_per_op", per_op "tlb_flushes", "count/op");
        ("hw.wrpkru_per_op", per_op "wrpkru", "count/op");
        ("hw.boot_ms", u.boot_ms, "ms");
        ("hw.keymux.fault_ins_per_op", per_op "km.fault_ins", "count/op");
        ("hw.keymux.evictions_per_op", per_op "km.evictions", "count/op");
        ("hw.keymux.retag_pages_per_op", per_op "km.retag_pages", "count/op");
        ("core.trampoline.calls_per_op", per_op "calls", "count/op");
        ("core.trampoline.shared_calls_per_op", per_op "shared_calls", "count/op");
        ("core.trampoline.guard_entries", fi u.guards, "count");
        ("core.window.ops_per_op", per_op "window_ops", "count/op");
        ("core.monitor.faults_per_op", per_op "faults", "count/op");
        ("core.monitor.retags_per_op", per_op "retags", "count/op");
        ("core.monitor.rejected", fi (Stats.rejected (Monitor.stats inst.mon)), "count");
        ("core.builder.spawn_us_p50", spawn_p50, "us");
        ("core.builder.teardown_us_p50", teardown_p50, "us");
        ("core.builder.teardown_per_spawn", ratio teardown_p50 spawn_p50, "ratio");
        ("core.builder.churn_us_per_op", us churn /. ops, "us/op");
      ]
    @ List.map
        (fun (layer, cub) ->
          ( Printf.sprintf "%s.%s.self_us_per_op" layer cub,
            us (Spans.self_ns sp cub) /. ops,
            "us/op" ))
        layers
    @ [
        ("loadgen.self_us_per_op", us (pb.wall_ns - sum_vec pb.lat - pb.upkeep_ns) /. ops, "us/op");
        ("libos.vfs.calls_per_op", per_op "vfs_calls", "count/op");
        ("minidb.pager.hit_ratio", ratio hits (hits +. misses), "ratio");
        ("minidb.pager.page_reads_per_op", pager Telemetry.Event.Page_read /. ops, "count/op");
        ("minidb.pager.page_writes_per_op", pager Telemetry.Event.Page_write /. ops, "count/op");
        ("minidb.pager.commits_per_op", pager Telemetry.Event.Commit /. ops, "count/op");
        ("minidb.light_us_p50", only "sql_speedtest" 0, "us");
        ("minidb.heavy_us_p50", only "sql_speedtest" 1, "us");
        ("httpd.small_us_p50", only "http_static" 0, "us");
        ("httpd.large_us_p50", only "http_static" 2, "us");
        ("httpd.bytes_per_op", fi pa.bytes /. fi pa.n, "B/op");
        ("telemetry.trace_overhead", ratio (fi pb.wall_ns) (fi pa.wall_k_ns), "ratio");
        ("telemetry.events_per_op", fi sp.events /. ops, "count/op");
        ("host.alloc_words_per_op", untraced "gc.words", "words/op");
        ("host.major_gcs_per_kop", untraced "gc.major" *. 1000., "count/kop");
      ]
  in
  let meta = [ ("workload", Json.str spec.name); ("seed", Json.num (fi a.seed)) ] in
  (pb, metrics, Spans.to_json sp ~meta ~ops:pb.n)

let window_json rows =
  Json.arr
    (List.map
       (fun w ->
         Json.obj
           [
             ("speed", Json.num w.speed);
             ("ops_per_s", Json.num w.rate);
             ("host_us_mean", Json.num w.mean);
             ("host_us_p99", Json.num w.p99);
           ])
       rows)

let metric_json rows =
  Json.obj
    (List.map
       (fun (name, v, unit) -> (name, Json.obj [ ("value", Json.num v); ("unit", Json.str unit) ]))
       rows)

let print_section title rows =
  Printf.printf "\n%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-40s %18.6g %s\n" name v unit) rows

let () =
  let a = parse_args (List.tl (Array.to_list Sys.argv)) in
  let spec = a.workload in
  let k = spec.sim_window in
  Probe.warm_up ();
  spec.oracle ();
  let u = run_untraced spec a in
  let pa = u.pa in
  let short, long, scaled, raw = host_figures pa ~min_ops in
  let host (rate, mean, p99) =
    [
      ("setup_s", u.setup_s, "s");
      ("ops_per_s", rate, "1/s");
      ("host_us_mean", mean, "us");
      ("host_us_p99", p99, "us");
      ("peak_rss_mb", u.rss_mb, "MB");
    ]
  in
  let e2e = host scaled and e2e_raw = host raw in
  let sim_e2e =
    [
      ("fail_ratio", fi pa.failed /. fi pa.n, "ratio");
      ("sim_cycles_per_op", fi pa.prefix.(index u.names "sim.cycles") /. fi k, "cycles/op");
      ("sim_cycles_p99", fi (Vec.percentile ~len:k pa.cyc 0.99), "cycles");
    ]
  in
  let traced = if a.trace then Some (run_traced spec a u) else None in
  let per_layer = match traced with Some (_, m, _) -> m | None -> [] in
  let attempted, failed =
    match traced with Some (pb, _, _) -> (pa.n + pb.n, pa.failed + pb.failed) | None -> (pa.n, pa.failed)
  in
  (* every metric by name with its unit *)
  Printf.printf
    "workload %s  seed %d  %d ops in %d s (%d failed); host figures from %d and %d windows; \
     simulated figures over the first %d ops\n"
    spec.name a.seed pa.n a.seconds pa.failed (List.length short) (List.length long) k;
  print_section
    "end-to-end, host clock (untraced; per-op figures at the reference machine speed)" e2e;
  print_section
    (Printf.sprintf "end-to-end, host clock as measured (scaled by %.2f to the reference speed)"
       (Vec.median_float (List.map (fun w -> w.speed) short)))
    e2e_raw;
  print_section (Printf.sprintf "end-to-end, simulated clock (first %d ops)" k) sim_e2e;
  if a.trace then print_section "per layer (traced replay of the window)" per_layer;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" spec.name a.seed) in
  let results_file = base ^ if a.trace then "-trace1.json" else "-trace0.json" in
  Json.write_file results_file
    (Json.obj
       [
         ("workload", Json.str spec.name);
         ("seed", Json.num (fi a.seed));
         ("seconds", Json.num (fi a.seconds));
         ("trace", Json.num (if a.trace then 1. else 0.));
         ("attempted", Json.num (fi attempted));
         ("failed", Json.num (fi failed));
         ("host_samples", Json.num (fi pa.n));
         ("windows", window_json short);
         ("p99_windows", window_json long);
         ("setup_samples_s", Json.arr (List.map Json.num u.setup_samples));
         ("sim_window_ops", Json.num (fi k));
         ("end_to_end", metric_json (e2e @ sim_e2e));
         ("end_to_end_as_measured", metric_json e2e_raw);
         ("per_layer", metric_json per_layer);
       ]);
  Printf.printf "\nwrote %s\n" results_file;
  Option.iter
    (fun (_, _, spans) ->
      Json.write_file (base ^ "-spans.json") spans;
      Printf.printf "wrote %s\n" (base ^ "-spans.json"))
    traced;
  print_endline
    (Json.obj
       [
         ("correct", if failed = 0 then "true" else "false");
         ("attempted", Json.num (fi attempted));
         ("failed", Json.num (fi failed));
         ("metrics", metric_json (if a.trace then per_layer else e2e));
       ])
