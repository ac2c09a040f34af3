(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). Results are simulated cycles from the machine's
   cost model, reported in the paper's units. Each target is a
   subcommand taking only its own flags (`main.exe fig6 --help`); with
   no subcommand, or with `all`, every target except `trace` runs:
   table2 fig5 fig6 fig7 fig8 fig10a fig10b ablation hw smp sendfile
   keys analyze. `trace` captures the Fig. 2 write path on the
   telemetry bus and writes trace.json / trace.folded; `--sample N`
   keeps 1 in N events and `--stream` writes the JSON incrementally
   through a bus sink instead of from the ring. `fig6 --attrib` appends
   the per-cubicle cycle-attribution tables; `--latency` (on
   fig6/fig7/fig10a/fig10b) appends per-edge call-latency percentiles
   and, for fig6/fig7, writes BENCH_latency.json. `--golden FILE` checks
   a target's deterministic rows against a golden file (module Golden)
   and exits 1 on drift; a bad command line exits 124. EXPERIMENTS.md
   records paper-vs-measured numbers. *)

open Cubicle

let fprintf = Printf.printf

let cname mon cid = try Monitor.cubicle_name mon cid with _ -> Printf.sprintf "C%d" cid

let heading title =
  fprintf "\n=======================================================================\n";
  fprintf "%s\n" title;
  fprintf "=======================================================================\n"

(* --- Table 2: component sizes -------------------------------------------- *)

let paper_sloc =
  [
    ("Monitor (asm)", "110", "cross-cubicle calls");
    ("Monitor (C)", "3000", "all components");
    ("Builder (Python)", "640", "trampoline generation");
    ("Unikraft windows", "600", "windows");
    ("SQLite port", "620", "windows");
    ("NGINX port", "390", "windows");
  ]

let table2 () =
  heading "Table 2: Sizes of CubicleOS components";
  fprintf "Paper (SLOC):\n";
  List.iter (fun (c, n, d) -> fprintf "  %-24s %6s  %s\n" c n d) paper_sloc;
  fprintf "\nThis reproduction (loaded component inventory, NGINX deployment):\n";
  let app = Httpd.Server.component () in
  let sys = Libos.Boot.net_stack ~extra:[ (app, Types.Isolated) ] () in
  let mon = sys.Libos.Boot.mon in
  fprintf "  %-10s %-9s %-4s %8s %9s  exports\n" "component" "kind" "key" "exports"
    "heap(KiB)";
  List.iter
    (fun cid ->
      let exports = Monitor.exports_of mon cid in
      fprintf "  %-10s %-9s %-4d %8d %9d  %s\n" (Monitor.cubicle_name mon cid)
        (Types.kind_to_string (Monitor.cubicle_kind mon cid))
        (Monitor.cubicle_key mon cid) (List.length exports)
        (Monitor.cubicle_heap_bytes mon cid / 1024)
        (String.concat "," (List.filteri (fun i _ -> i < 4) exports)
        ^ if List.length exports > 4 then ",…" else ""))
    (Monitor.live_cids mon)

(* --- Figures 5 and 8: cubicle call-count graphs ---------------------------- *)

let print_edges mon edges =
  List.iter
    (fun ((caller, callee), n) ->
      fprintf "  %-10s -> %-10s %9d\n"
        (Monitor.cubicle_name mon caller)
        (Monitor.cubicle_name mon callee)
        n)
    edges

let fig5 () =
  heading "Figure 5: NGINX cubicle graph (cross-cubicle calls during measurement)";
  let app = Httpd.Server.component () in
  let sys = Libos.Boot.net_stack ~extra:[ (app, Types.Isolated) ] () in
  let mon = sys.Libos.Boot.mon in
  (* docroot of random static files, as served to siege *)
  let sizes = [ 1024; 4096; 16384; 65536 ] in
  Libos.Boot.populate sys ~as_app:"NGINX"
    (List.map (fun s -> (Printf.sprintf "/f%d.bin" s, String.make s 'x')) sizes);
  let server = Httpd.Server.start sys in
  let siege = Httpd.Siege.make sys server in
  (* warm up, then measure *)
  ignore (Httpd.Siege.fetch siege "/f1024.bin");
  let before = Stats.snapshot (Monitor.stats mon) in
  let seed = ref 7 in
  for _ = 1 to 40 do
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    let size = List.nth sizes (!seed mod List.length sizes) in
    ignore (Httpd.Siege.fetch siege (Printf.sprintf "/f%d.bin" size))
  done;
  fprintf "40 siege requests over random static files (1-64 KiB):\n";
  print_edges mon (Stats.diff_edges (Monitor.stats mon) ~since:before);
  fprintf "  (plus %d calls into shared cubicles: newlibc-style memcpy etc.)\n"
    (Stats.shared_calls (Monitor.stats mon))

let fig8 () =
  heading "Figure 8: SQLite cubicle graph (call counts include boot)";
  let inst = Ukernel.Compose.make Ukernel.Compose.Cubicle4 in
  ignore
    (Minidb.Speedtest.run_all inst.Ukernel.Compose.os ~path:"/speed.db" ~n:100
       ~measure:(fun f -> f ()));
  fprintf "speedtest1 (n=100), Fig. 8 topology (VFSCORE and RAMFS separate):\n";
  print_edges inst.Ukernel.Compose.mon
    (Stats.edges (Monitor.stats inst.Ukernel.Compose.mon));
  fprintf "  shared-cubicle calls: %d\n"
    (Stats.shared_calls (Monitor.stats inst.Ukernel.Compose.mon))

(* --- Figure 6: per-query execution times under the 4 configs --------------- *)

(* Attach a latency sink post-boot, resetting the counter plane at the
   same instant so per-edge sample counts can be cross-checked against
   calls_between. Cost attribution is untouched. *)
let attach_latency mon =
  let bus = Monitor.bus mon in
  Telemetry.Bus.set_latency bus (Some (Telemetry.Latency.create ()));
  Telemetry.Bus.reset_counters bus

let speedtest_for_protection ?(latency = false) protection ~n =
  let app = Builder.component ~heap_pages:512 ~stack_pages:4 "APP" in
  let sys =
    Libos.Boot.fs_stack ~protection ~mem_bytes:(192 * 1024 * 1024)
      ~extra:[ (app, Types.Isolated) ]
      ()
  in
  if latency then attach_latency sys.Libos.Boot.mon;
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP")) in
  let cost = Monitor.cost sys.Libos.Boot.mon in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n ~measure:(fun f ->
        let c0 = Hw.Cost.cycles cost in
        f ();
        Hw.Cost.cycles cost - c0)
  in
  (results, sys.Libos.Boot.mon)

(* Per-cubicle x per-category cycle attribution (the measured form of
   the paper's §6.4 overhead decomposition). Aborts if the table does
   not sum to the machine's cycle count — attribution is exhaustive by
   construction, so any mismatch is a bug. *)
let attrib_table mon =
  let cost = Monitor.cost mon in
  let attrib = cost.Hw.Cost.attrib in
  fprintf "%-10s" "cubicle";
  List.iter (fun c -> fprintf "%13s" (Telemetry.Attrib.cat_name c)) Telemetry.Attrib.categories;
  fprintf "%15s %6s\n" "total" "share";
  let grand = Telemetry.Attrib.total attrib in
  List.iter
    (fun (cid, row) ->
      fprintf "%-10s" (cname mon cid);
      Array.iter (fun v -> fprintf "%13d" v) row;
      let tot = Array.fold_left ( + ) 0 row in
      fprintf "%15d %5.1f%%\n" tot (100. *. float_of_int tot /. float_of_int (max 1 grand)))
    (Telemetry.Attrib.rows attrib);
  fprintf "%-10s" "TOTAL";
  List.iter
    (fun c -> fprintf "%13d" (Telemetry.Attrib.category_total attrib c))
    Telemetry.Attrib.categories;
  fprintf "%15d %5.1f%%\n" grand 100.;
  if grand <> Hw.Cost.cycles cost then begin
    fprintf "FATAL: attribution total %d <> Cost.cycles %d\n" grand (Hw.Cost.cycles cost);
    exit 1
  end

(* Per-edge call-latency percentiles from the bus's latency plane. The
   sink is fed from the same counter-plane sites as calls_between, so
   every counter edge must appear with the identical count — any
   divergence is a call/return pairing bug and aborts the run. The
   microkernel baselines' RPC edges are latency-only observations, so
   they carry no counter to check against. *)
let latency_table mon =
  let bus = Monitor.bus mon in
  match Telemetry.Bus.latency bus with
  | None -> fprintf "  (no latency sink attached)\n"
  | Some lat ->
      let edges = Telemetry.Latency.edges lat in
      if edges = [] then fprintf "  (no cross-cubicle calls observed)\n"
      else begin
        fprintf "  %-10s %-10s %9s %9s %9s %9s %9s %11s\n" "caller" "callee" "count" "p50"
          "p90" "p99" "max" "mean";
        List.iter
          (fun ((caller, callee), h) ->
            let open Telemetry.Hist in
            fprintf "  %-10s %-10s %9d %9d %9d %9d %9d %11.1f\n" (cname mon caller)
              (cname mon callee) (count h) (percentile h 0.50) (percentile h 0.90)
              (percentile h 0.99) (max_value h) (mean h))
          edges
      end;
      if Telemetry.Latency.unmatched lat > 0 || Telemetry.Latency.in_flight lat > 0 then
        fprintf "  (unmatched returns: %d, in flight at capture: %d)\n"
          (Telemetry.Latency.unmatched lat)
          (Telemetry.Latency.in_flight lat);
      List.iter
        (fun ((caller, callee), n) ->
          let c =
            match Telemetry.Latency.edge lat ~caller ~callee with
            | Some h -> Telemetry.Hist.count h
            | None -> 0
          in
          if c <> n then begin
            fprintf "FATAL: edge %s->%s: latency count %d <> calls_between %d\n"
              (cname mon caller) (cname mon callee) c n;
            exit 1
          end)
        (Telemetry.Bus.edges bus)

let json_key_sanitize s = String.map (function ' ' | '/' -> '_' | c -> c) s

let latency_json_rows mon ~config =
  let bus = Monitor.bus mon in
  match Telemetry.Bus.latency bus with
  | None -> []
  | Some lat ->
      List.concat_map
        (fun ((caller, callee), h) ->
          let key field =
            Printf.sprintf "%s.%s->%s.%s" (json_key_sanitize config) (cname mon caller)
              (cname mon callee) field
          in
          let open Telemetry.Hist in
          [
            (key "count", count h);
            (key "p50", percentile h 0.50);
            (key "p90", percentile h 0.90);
            (key "p99", percentile h 0.99);
          ])
        (Telemetry.Latency.edges lat)

let fig6 ?(n = 150) ?(attrib = false) ?(latency = false) ?(hdr = false)
    ?(lat_out = "BENCH_latency.json") ?golden ?write_golden () =
  let latency = latency || hdr || golden <> None || write_golden <> None in
  heading "Figure 6: SQLite speedtest1 query execution times (simulated ms)";
  let configs =
    [
      ("Unikraft", Types.None_);
      ("w/o MPK", Types.Trampolines);
      ("w/o ACLs", Types.Mpk);
      ("CubicleOS", Types.Full);
    ]
  in
  let full_runs =
    List.map (fun (name, p) -> (name, speedtest_for_protection ~latency p ~n)) configs
  in
  let runs = List.map (fun (name, (r, _)) -> (name, r)) full_runs in
  let base = List.assoc "Unikraft" runs in
  let full = List.assoc "CubicleOS" runs in
  fprintf "%-5s %-5s " "query" "group";
  List.iter (fun (name, _) -> fprintf "%10s " name) runs;
  fprintf "%9s\n" "slowdown";
  List.iteri
    (fun i ((q : Minidb.Speedtest.query), base_cycles) ->
      fprintf "%-5d %-5s " q.id
        (match q.group with Minidb.Speedtest.Light -> "L" | Heavy -> "H");
      List.iter
        (fun (_, results) ->
          let _, c = List.nth results i in
          fprintf "%10.2f " (Hw.Cost.to_ms c))
        runs;
      let _, full_cycles = List.nth full i in
      fprintf "%8.2fx\n" (float_of_int full_cycles /. float_of_int (max 1 base_cycles)))
    base;
  (* the paper's §6.4 decomposition *)
  let group_avg group =
    List.map
      (fun (name, results) ->
        let xs =
          List.filter_map
            (fun ((q : Minidb.Speedtest.query), c) ->
              if q.group = group then Some c else None)
            results
        in
        (name, List.fold_left ( + ) 0 xs / List.length xs))
      runs
  in
  let print_group label group =
    let avgs = group_avg group in
    let base = float_of_int (List.assoc "Unikraft" avgs) in
    fprintf "%s:\n" label;
    List.iter
      (fun (name, c) ->
        fprintf "  %-10s %10.2f ms  (%.2fx)\n" name (Hw.Cost.to_ms c)
          (float_of_int c /. base))
      avgs
  in
  fprintf "\nGroup averages (paper: light group ~1.8x, heavy group ~8x):\n";
  print_group "light queries" Minidb.Speedtest.Light;
  print_group "heavy queries" Minidb.Speedtest.Heavy;
  if attrib then begin
    fprintf
      "\n§6.4 overhead decomposition: per-cubicle cycle attribution (full run incl. boot)\n";
    List.iter
      (fun (name, (_, mon)) ->
        fprintf "\n[%s]\n" name;
        attrib_table mon)
      full_runs
  end;
  if latency then begin
    fprintf
      "\nPer-edge call latency (simulated cycles; counters reset post-boot so\n\
       per-edge counts equal the bus's calls_between — checked):\n";
    List.iter
      (fun (name, (_, mon)) ->
        fprintf "\n[%s]\n" name;
        latency_table mon)
      full_runs;
    let rows =
      List.concat_map (fun (name, (_, mon)) -> latency_json_rows mon ~config:name) full_runs
    in
    fprintf "\n";
    Golden.emit ?golden ?write_golden ~out:lat_out
      ~what:(Printf.sprintf "per-edge latencies (--n %d)" n)
      ~ok:"per-edge latency percentiles match"
      ~recalibrate:(Printf.sprintf "fig6 --latency --n %d" n)
      rows;
    if hdr then begin
      (* HdrHistogram-compatible percentile dump, loadable by hdr-plot
         and the HdrHistogram plotFiles viewer: one section per
         cross-cubicle edge of the full-protection run *)
      let hdr_out =
        (if Filename.check_suffix lat_out ".json" then Filename.chop_suffix lat_out ".json"
         else lat_out)
        ^ ".hdr"
      in
      let mon = snd (List.assoc "CubicleOS" full_runs) in
      let bus = Monitor.bus mon in
      (match Telemetry.Bus.latency bus with
      | None -> ()
      | Some lat ->
          let oc = open_out hdr_out in
          List.iter
            (fun ((caller, callee), h) ->
              Printf.fprintf oc "#[Edge: %s->%s]\n%s\n" (cname mon caller) (cname mon callee)
                (Telemetry.Export.hdr h))
            (Telemetry.Latency.edges lat);
          close_out oc;
          fprintf "wrote HdrHistogram percentile dump to %s\n" hdr_out)
    end
  end

(* --- Figure 7: NGINX download latency vs transfer size ---------------------- *)

let fig7 ?(repeats = 3) ?(latency = false) ?(lat_out = "BENCH_latency.json") () =
  heading "Figure 7: NGINX download latency vs transfer size (simulated ms)";
  let sizes = List.init 14 (fun i -> 1024 lsl i) (* 1 KiB .. 8 MiB *) in
  let run protection =
    let app = Httpd.Server.component () in
    let sys =
      Libos.Boot.net_stack ~protection ~mem_bytes:(512 * 1024 * 1024)
        ~extra:[ (app, Types.Isolated) ]
        ()
    in
    if latency then attach_latency sys.Libos.Boot.mon;
    let server = Httpd.Server.start sys in
    let siege = Httpd.Siege.make sys server in
    let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "NGINX") in
    let results =
      Httpd.Siege.latency_for_sizes siege ~sizes ~repeats
        ~populate:(fun size ->
          let path = Printf.sprintf "/f%d.bin" size in
          if not (Libos.Fileio.exists fio path) then
            Libos.Fileio.write_file fio path (String.make size 'd');
          path)
        ()
    in
    (results, sys.Libos.Boot.mon)
  in
  let base, base_mon = run Types.None_ in
  let cubicle, full_mon = run Types.Full in
  fprintf "%12s %14s %14s %9s\n" "size(B)" "baseline(ms)" "CubicleOS(ms)" "overhead";
  List.iter2
    (fun (size, b, _) (_, c, _) -> fprintf "%12d %14.2f %14.2f %8.2fx\n" size b c (c /. b))
    base cubicle;
  if latency then begin
    fprintf
      "\nPer-edge call latency of the serving path (the paper's request pipeline:\n\
       NGINX->LWIP for recv/send, LWIP->NETDEV per frame; counters reset\n\
       post-boot so per-edge counts equal the bus's calls_between — checked):\n";
    let runs = [ ("fig7-baseline", base_mon); ("fig7-CubicleOS", full_mon) ] in
    List.iter
      (fun (name, mon) ->
        fprintf "\n[%s]\n" name;
        latency_table mon;
        (* call out the two edges Figure 7's overhead story hangs on *)
        let bus = Monitor.bus mon in
        match Telemetry.Bus.latency bus with
        | None -> ()
        | Some lat ->
            let cid_of name =
              if Monitor.cubicle_exists mon name then Some (Monitor.lookup_cubicle mon name)
              else None
            in
            List.iter
              (fun (c1, c2) ->
                match (cid_of c1, cid_of c2) with
                | Some caller, Some callee -> (
                    match Telemetry.Latency.edge lat ~caller ~callee with
                    | Some h ->
                        let open Telemetry.Hist in
                        fprintf "  %s->%s: %d calls, p50 %d / p99 %d cycles\n" c1 c2
                          (count h) (percentile h 0.50) (percentile h 0.99)
                    | None -> fprintf "  %s->%s: edge not observed\n" c1 c2)
                | _ -> ())
              [ ("NGINX", "LWIP"); ("LWIP", "NETDEV") ])
      runs;
    (* merge into the flat BENCH_latency.json so a fig6 run in the same
       invocation is appended to, not clobbered *)
    let prior =
      if Sys.file_exists lat_out then
        List.filter
          (fun (k, _) -> not (String.length k >= 5 && String.sub k 0 5 = "fig7-"))
          (Golden.read lat_out)
      else []
    in
    let rows =
      prior
      @ List.concat_map (fun (name, mon) -> latency_json_rows mon ~config:name) runs
    in
    Golden.write lat_out rows;
    fprintf "\nwrote %s\n" lat_out
  end

(* --- Figures 9/10: partitioning comparison ----------------------------------- *)

(* Targets whose default run prints only the figure: the golden tail
   (and its "wrote" lines) runs only when one of its flags is given. *)
let emit_on_request ?out ?golden ?write_golden ~default_out ~what ~ok ~recalibrate rows =
  if out <> None || golden <> None || write_golden <> None then begin
    fprintf "\n";
    Golden.emit ?golden ?write_golden ~out:(Option.value out ~default:default_out) ~what ~ok
      ~recalibrate rows
  end

let fig10a ?(n = 120) ?(latency = false) ?out ?golden ?write_golden () =
  heading "Figure 10a: slowdown vs Linux (speedtest1 average)";
  fprintf "(Figure 9: '3 components' merges the fs driver into the VFS;\n";
  fprintf " '4 components' separates RAMFS into its own compartment)\n\n";
  let open Ukernel.Compose in
  let configs =
    [
      Linux;
      Unikraft;
      Genode3 Ukernel.Kernel.linux;
      Genode4 Ukernel.Kernel.linux;
      Cubicle3;
      Cubicle4;
    ]
  in
  let runs =
    List.map
      (fun c ->
        let inst = make c in
        if latency then attach_latency inst.mon;
        let per_q = speedtest_run ~n inst in
        (config_name c, List.fold_left (fun acc (_, cyc) -> acc + cyc) 0 per_q, inst.mon))
      configs
  in
  let totals = List.map (fun (name, total, _) -> (name, total)) runs in
  let linux_total = float_of_int (List.assoc "Linux" totals) in
  fprintf "%-16s %16s %9s   (paper)\n" "config" "cycles" "slowdown";
  let paper = [ "1.0x"; "2.8x"; "1.4x"; "29x"; "4.1x"; "5.4x" ] in
  List.iteri
    (fun i (name, total) ->
      fprintf "%-16s %16d %8.1fx   (%s)\n" name total
        (float_of_int total /. linux_total)
        (List.nth paper i))
    totals;
  if latency then begin
    fprintf
      "\nPer-edge call latency (trampoline edges counter-checked; the Genode\n\
       configs' kernel RPC edges are latency-only observations):\n";
    List.iter
      (fun (name, _, mon) ->
        fprintf "\n[%s]\n" name;
        latency_table mon)
      runs
  end;
  emit_on_request ?out ?golden ?write_golden ~default_out:"BENCH_fig10a.json"
    ~what:(Printf.sprintf "Figure 10a totals (--n %d)" n)
    ~ok:"Figure 10a totals match"
    ~recalibrate:(Printf.sprintf "fig10a --n %d" n)
    (List.map (fun (name, total) -> ("fig10a." ^ name ^ ".cycles", total)) totals)

let fig10b ?(n = 120) ?(latency = false) () =
  heading "Figure 10b: slowdown of 4 components vs 3 components";
  let open Ukernel.Compose in
  (* keep the 4-component monitors when --latency: those deployments are
     where the per-packet RPC edges live *)
  let kept = ref [] in
  let total ~keep c =
    let inst = make c in
    if latency then attach_latency inst.mon;
    let t = List.fold_left (fun acc (_, cyc) -> acc + cyc) 0 (speedtest_run ~n inst) in
    if latency && keep then kept := (config_name c, inst.mon) :: !kept;
    t
  in
  let ratio three four =
    let t3 = total ~keep:false three in
    let t4 = total ~keep:true four in
    float_of_int t4 /. float_of_int t3
  in
  let paper =
    [
      ("SeL4", "7.5x");
      ("Fiasco.OC", "4.5x");
      ("NOVA", "4.7x");
      ("Linux", "~20x");
      ("CubicleOS", "1.4x");
    ]
  in
  let results =
    List.map
      (fun k -> (k.Ukernel.Kernel.name, ratio (Genode3 k) (Genode4 k)))
      [ Ukernel.Kernel.sel4; Ukernel.Kernel.fiasco_oc; Ukernel.Kernel.nova; Ukernel.Kernel.linux ]
    @ [ ("CubicleOS", ratio Cubicle3 Cubicle4) ]
  in
  fprintf "%-12s %9s   (paper)\n" "kernel" "slowdown";
  List.iter
    (fun (name, r) -> fprintf "%-12s %8.1fx   (%s)\n" name r (List.assoc name paper))
    results;
  if latency then begin
    fprintf "\nPer-edge call latency of the 4-component deployments:\n";
    List.iter
      (fun (name, mon) ->
        fprintf "\n[%s]\n" name;
        latency_table mon)
      (List.rev !kept)
  end

(* --- Ablations: the design-space choices of §5.6/§8 --------------------------- *)

(* Two isolated cubicles under full protection: FOO (32 heap pages) owns
   a 16-page buffer [buf] registered in window [wid]; BAR (8 heap pages)
   exports [sym] = [fn]. *)
let foo_bar_rig ?policy ~sym fn =
  let mon = Monitor.create ?policy ~protection:Types.Full () in
  let cubicle name heap_pages =
    Monitor.create_cubicle mon ~name ~kind:Types.Isolated ~heap_pages ~stack_pages:2
  in
  let foo = cubicle "FOO" 32 in
  let bar = cubicle "BAR" 8 in
  Monitor.register_exports mon bar [ { Monitor.sym; fn; stack_bytes = 0 } ];
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx (16 * 4096) in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:(16 * 4096);
  (mon, ctx, foo, bar, buf, wid)

let ablation ?out ?golden ?write_golden () =
  heading "Ablation: window mapping/revocation policies and window-specific tags";
  let rows = ref [] in
  let row scenario slug fields =
    List.iter
      (fun (f, v) -> rows := (Printf.sprintf "ablation.%s.%s.%s" scenario slug f, v) :: !rows)
      fields
  in
  fprintf
    "The Figure-2 write path (1000 x 4 KiB pwrite through APP->VFSCORE->RAMFS),\n\
     full protection, with CubicleOS's mechanisms swapped for the alternatives\n\
     the paper discusses (§5.6) and the hybrid it suggests (§8):\n\n";
  let run ~policy ~dedicated =
    let sys =
      Libos.Boot.fs_stack ~protection:Types.Full ~policy
        ~extra:[ (Builder.component ~heap_pages:64 ~stack_pages:4 "APP", Types.Isolated) ]
        ()
    in
    let mon = sys.Libos.Boot.mon in
    let ctx = Libos.Boot.app_ctx sys "APP" in
    let fio = Libos.Fileio.make ctx in
    let fd =
      Monitor.run_as mon (Api.self ctx) (fun () ->
          Libos.Fileio.open_file fio "/abl.bin" ~create:true)
    in
    let buf = Api.malloc_page_aligned ctx 4096 in
    let c0 = Hw.Cost.cycles (Monitor.cost mon) in
    let f0 = Hw.Cpu.fault_count (Monitor.cpu mon) in
    let r0 = Monitor.retag_count mon in
    Monitor.run_as mon (Api.self ctx) (fun () ->
        if dedicated then begin
          (* hybrid: one standing window with its own tag *)
          let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
          Api.window_add ctx wid ~ptr:buf ~size:4096;
          Api.window_open_dedicated ctx wid (Api.cid_of ctx "VFSCORE");
          Api.window_open_dedicated ctx wid
            (Api.call ctx (Api.import "vfs_backend_cid") [||]);
          let vfs_pwrite = Api.import "vfs_pwrite" in
          for i = 0 to 999 do
            Api.write_u32 ctx buf i;
            ignore (Api.call ctx vfs_pwrite [| fd; buf; 4096; i * 4096 |])
          done
        end
        else
          for i = 0 to 999 do
            Api.write_u32 ctx buf i;
            ignore (Libos.Fileio.pwrite fio ~fd ~buf ~len:4096 ~off:(i * 4096))
          done);
    ( Hw.Cost.cycles (Monitor.cost mon) - c0,
      Hw.Cpu.fault_count (Monitor.cpu mon) - f0,
      Monitor.retag_count mon - r0 )
  in
  let configs =
    [
      ("trap-and-map + causal (CubicleOS)", "lazy_causal", Monitor.default_policy, false);
      ( "eager map on open",
        "eager_map",
        { Monitor.mapping = `Eager_on_open; revocation = `Causal },
        false );
      ( "eager revoke on close",
        "eager_revoke",
        { Monitor.mapping = `Lazy_trap; revocation = `Eager_revoke },
        false );
      ( "eager map + eager revoke",
        "eager_both",
        { Monitor.mapping = `Eager_on_open; revocation = `Eager_revoke },
        false );
      ("window-specific tag (hybrid, §8)", "dedicated", Monitor.default_policy, true);
    ]
  in
  let counts cycles faults retags = [ ("cycles", cycles); ("faults", faults); ("retags", retags) ] in
  fprintf "%-36s %14s %8s %8s\n" "configuration" "cycles" "faults" "retags";
  List.iter
    (fun (name, slug, policy, dedicated) ->
      let cycles, faults, retags = run ~policy ~dedicated in
      row "A" slug (counts cycles faults retags);
      fprintf "%-36s %14d %8d %8d\n" name cycles faults retags)
    configs;
  (* Scenario B: the conservative-port pattern the lazy design targets —
     a wide window (16 pages) of which the callee touches only one. *)
  fprintf
    "\nScenario B: 500 calls, 16-page window opened each time, 1 page touched\n\
     (conservatively sized grants, where lazy trap-and-map shines):\n\n";
  let run_wide ~policy =
    let mon, ctx, foo, bar, buf, wid =
      foo_bar_rig ~policy ~sym:"bar_peek" (fun c a -> Api.read_u8 c a.(0))
    in
    let c0 = Hw.Cost.cycles (Monitor.cost mon) in
    let bar_peek = Monitor.import "bar_peek" in
    for _ = 1 to 500 do
      Api.window_open ctx wid bar;
      ignore (Monitor.call mon ~caller:foo bar_peek [| buf |]);
      Api.window_close ctx wid bar
    done;
    ( Hw.Cost.cycles (Monitor.cost mon) - c0,
      Hw.Cpu.fault_count (Monitor.cpu mon),
      Monitor.retag_count mon )
  in
  fprintf "%-36s %14s %8s %8s\n" "configuration" "cycles" "faults" "retags";
  List.iter
    (fun (name, slug, policy, dedicated) ->
      if not dedicated then begin
        let cycles, faults, retags = run_wide ~policy in
        row "B" slug (counts cycles faults retags);
        fprintf "%-36s %14d %8d %8d\n" name cycles faults retags
      end)
    configs;
  (* Scenario C: tag virtualisation (libmpk, paper §8) — cost of
     running more isolated cubicles than the 16 hardware keys. *)
  fprintf
    "\nScenario C: round-robin calls across N isolated cubicles\n\
     (tag virtualisation on; hardware has 14 usable keys):\n\n";
  fprintf "%-10s %14s %10s %10s\n" "cubicles" "cycles" "evictions" "cyc/call";
  List.iter
    (fun n ->
      let mon = Monitor.create ~virtualise:true ~protection:Types.Full () in
      let cids =
        List.init n (fun i ->
            let cid =
              Monitor.create_cubicle mon ~name:(Printf.sprintf "N%02d" i)
                ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
            in
            Monitor.register_exports mon cid
              [
                {
                  Monitor.sym = Printf.sprintf "n%02d_work" i;
                  fn = (fun ctx a -> Api.write_u8 ctx a.(0) 1; 0);
                  stack_bytes = 0;
                };
              ];
            cid)
      in
      let bufs = List.map (fun cid -> Monitor.malloc mon cid 64) cids in
      let works =
        Array.init n (fun i -> Monitor.import (Printf.sprintf "n%02d_work" i))
      in
      let calls = 50 * n in
      let c0 = Hw.Cost.cycles (Monitor.cost mon) in
      for r = 0 to calls - 1 do
        let i = r mod n in
        ignore
          (Monitor.call mon ~caller:Monitor.monitor_cid works.(i) [| List.nth bufs i |])
      done;
      let cycles = Hw.Cost.cycles (Monitor.cost mon) - c0 in
      row "C" (Printf.sprintf "n%d" n)
        [ ("cycles", cycles); ("evictions", Monitor.tag_evictions mon) ];
      fprintf "%-10d %14d %10d %10d\n" n cycles (Monitor.tag_evictions mon)
        (cycles / calls))
    [ 4; 8; 12; 14; 16; 20; 28 ];
  (* Scenario D: journal modes — rollback journal vs write-ahead log
     for per-row transaction workloads (the heavy group's pattern). *)
  fprintf
    "\nScenario D: 200 single-row transactions, rollback journal vs WAL\n\
     (full protection; WAL batches its writes into the log):\n\n";
  fprintf "%-20s %14s %12s %10s\n" "journal mode" "cycles" "page writes" "vfs syncs";
  List.iter
    (fun (name, slug, mode) ->
      let app = Builder.component ~heap_pages:256 ~stack_pages:4 "APP" in
      let sys =
        Libos.Boot.fs_stack ~protection:Types.Full ~mem_bytes:(128 * 1024 * 1024)
          ~extra:[ (app, Types.Isolated) ] ()
      in
      let ctx = Libos.Boot.app_ctx sys "APP" in
      let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make ctx) in
      let mon = sys.Libos.Boot.mon in
      Monitor.run_as mon (Api.self ctx) (fun () ->
          let db = Minidb.Db.open_db ~journal_mode:mode os ~path:"/jm.db" in
          let t = Minidb.Db.create_table db "t" in
          Minidb.Db.with_txn db (fun () ->
              for i = 1 to 200 do
                ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
              done);
          let c0 = Hw.Cost.cycles (Monitor.cost mon) in
          let w0 = (Minidb.Pager.stats (Minidb.Db.pager db)).page_writes in
          for i = 1 to 200 do
            Minidb.Db.with_txn db (fun () ->
                ignore
                  (Minidb.Db.update db t (Int64.of_int i) [ Minidb.Record.int (-i) ]))
          done;
          let cycles = Hw.Cost.cycles (Monitor.cost mon) - c0 in
          let writes = (Minidb.Pager.stats (Minidb.Db.pager db)).page_writes - w0 in
          let syncs = Stats.calls_to_sym (Monitor.stats mon) "vfs_fsync" in
          row "D" slug [ ("cycles", cycles); ("page_writes", writes); ("syncs", syncs) ];
          fprintf "%-20s %14d %12d %10d\n" name cycles writes syncs;
          Minidb.Db.close db))
    [
      ("rollback journal", "rollback", Minidb.Pager.Rollback);
      ("write-ahead log", "wal", Minidb.Pager.Wal);
    ];
  emit_on_request ?out ?golden ?write_golden ~default_out:"BENCH_ablation.json"
    ~what:"ablation rows" ~ok:"ablation rows match" ~recalibrate:"ablation" (List.rev !rows)

(* --- hw: software-TLB wall-clock suite -> BENCH_hw.json --------------------------- *)

(* Bounded by fixed iteration counts, so its simulated-cycle counts are
   deterministic: CI compares them against bench/golden_cycles.json to
   catch cost-model drift, and the wall-clock columns track the
   trajectory of the simulator itself (the host cost of crossings and
   trap-and-map). The TLB must never change simulated behaviour —
   every scenario runs twice (TLB on / TLB off) and the harness fails
   if cycles, faults or wrpkru counts differ. *)

type hw_row = {
  hw_name : string;
  wall_ns_on : float;
  wall_ns_off : float;
  hw_cycles : int;
  hw_faults : int;
  hw_wrpkru : int;
  hw_hit_rate : float;
  hw_attrib : (string * int) list;
}

(* The cycles each cubicle was billed per category between two
   [Telemetry.Attrib.rows] snapshots, keyed "CUBICLE.category": which
   side of a crossing pays for a wrpkru or a stack copy, which totals
   alone do not pin. *)
let attrib_delta mon ~before ~after =
  List.concat_map
    (fun (cid, row) ->
      let b = Option.value (List.assoc_opt cid before) ~default:(Array.map (fun _ -> 0) row) in
      let d = Array.map2 ( - ) row b in
      if Array.for_all (( = ) 0) d then []
      else
        List.mapi
          (fun i c -> (cname mon cid ^ "." ^ Telemetry.Attrib.cat_name c, d.(i)))
          Telemetry.Attrib.categories)
    after

(* Each scenario body runs this many times per TLB setting, each from a
   fresh set-up; the wall-clock columns are the median. One timing of a
   millisecond-long body can be off by half. *)
let hw_reps = 5

(* [setup ()] builds a fresh system and returns its monitor and the
   measured body; only the body is timed and counted. *)
let hw_measure ?(pin_attrib = false) ~name setup =
  let run tlb_on =
    let mon, body = setup () in
    let cpu = Monitor.cpu mon in
    Hw.Cpu.set_tlb_enabled cpu tlb_on;
    let tlb = Hw.Cpu.tlb cpu in
    Hw.Tlb.reset_counters tlb;
    let c0 = Hw.Cost.cycles (Monitor.cost mon) in
    let f0 = Hw.Cpu.fault_count cpu in
    let k0 = Hw.Cpu.wrpkru_count cpu in
    let attrib () = Telemetry.Attrib.rows (Monitor.cost mon).Hw.Cost.attrib in
    let a0 = attrib () in
    let t0 = Unix.gettimeofday () in
    body ();
    let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    ( wall_ns,
      Hw.Cost.cycles (Monitor.cost mon) - c0,
      Hw.Cpu.fault_count cpu - f0,
      Hw.Cpu.wrpkru_count cpu - k0,
      Hw.Tlb.hit_rate tlb,
      attrib_delta mon ~before:a0 ~after:(attrib ()) )
  in
  (* The first run's counts, and the median wall-clock of all runs; a
     repetition that counts differently is a harness failure. *)
  let repeat tlb_on =
    let wall, cycles, faults, wrpkru, hit_rate, attrib = run tlb_on in
    let walls =
      wall
      :: List.init (hw_reps - 1) (fun _ ->
             let w, c, f, k, _, _ = run tlb_on in
             if (c, f, k) <> (cycles, faults, wrpkru) then begin
               fprintf
                 "FATAL: %s: a repetition changed simulated behaviour (tlb %b)\n\
                 \  first : cycles=%d faults=%d wrpkru=%d\n\
                 \  repeat: cycles=%d faults=%d wrpkru=%d\n"
                 name tlb_on cycles faults wrpkru c f k;
               exit 1
             end;
             w)
    in
    (List.nth (List.sort compare walls) (hw_reps / 2), cycles, faults, wrpkru, hit_rate, attrib)
  in
  let wall_ns_on, cycles_on, faults_on, wrpkru_on, hit_rate, attrib_on = repeat true in
  let wall_ns_off, cycles_off, faults_off, wrpkru_off, _, attrib_off = repeat false in
  if
    (cycles_on, faults_on, wrpkru_on, attrib_on)
    <> (cycles_off, faults_off, wrpkru_off, attrib_off)
  then begin
    fprintf
      "FATAL: %s: TLB changed simulated behaviour\n\
      \  on : cycles=%d faults=%d wrpkru=%d\n\
      \  off: cycles=%d faults=%d wrpkru=%d\n"
      name cycles_on faults_on wrpkru_on cycles_off faults_off wrpkru_off;
    exit 1
  end;
  {
    hw_name = name;
    wall_ns_on;
    wall_ns_off;
    hw_cycles = cycles_on;
    hw_faults = faults_on;
    hw_wrpkru = wrpkru_on;
    hw_hit_rate = hit_rate;
    hw_attrib =
      (if pin_attrib then List.map (fun (k, v) -> (name ^ ".attrib." ^ k, v)) attrib_on
       else []);
  }

let hw_scenario ?pin_attrib ~name body =
  hw_measure ?pin_attrib ~name (fun () ->
      let mon, ctx, foo, bar, buf, wid =
        foo_bar_rig ~sym:"bar_fn" (fun ctx a -> Api.write_u8 ctx a.(0) 1; 0)
      in
      (mon, fun () -> body mon ctx ~foo ~bar ~buf ~wid))

(* The handle the [hw_scenario] call sites share: each scenario's first
   call resolves it on that scenario's fresh monitor. *)
let bar_fn = Monitor.import "bar_fn"

let hw_rows () =
  [
    (* The MMU hot loop: a cubicle scanning its own 16-page heap buffer.
       One page walk per page, then every access is a TLB hit. Reads go
       straight through the checked accessor so the loop measures the
       MMU path, not harness arithmetic. *)
    hw_scenario ~name:"hot_loop_reads" (fun mon ctx ~foo ~bar:_ ~buf ~wid:_ ->
        let cpu = ctx.Monitor.cpu in
        Monitor.run_as mon foo (fun () ->
            for i = 0 to 1_999_999 do
              ignore (Hw.Cpu.read_u8 cpu (buf + (i land 0xFFFF)))
            done));
    (* Window trap-and-map storm: open/fault/retag/close per call —
       dominated by monitor work, the TLB must stay out of the way. *)
    hw_scenario ~pin_attrib:true ~name:"trap_and_map_storm" (fun mon ctx ~foo ~bar ~buf ~wid ->
        for _ = 1 to 2_000 do
          Api.window_open ctx wid bar;
          ignore (Monitor.call mon ~caller:foo bar_fn [| buf |]);
          Api.window_close ctx wid bar
        done);
    (* Warm cross-cubicle call churn: trampoline PKRU flips flush the
       TLB twice per call, so this measures flush overhead. *)
    hw_scenario ~pin_attrib:true ~name:"call_churn" (fun mon ctx ~foo ~bar ~buf ~wid ->
        Api.window_open ctx wid bar;
        ignore (Monitor.call mon ~caller:foo bar_fn [| buf |]);
        for _ = 1 to 20_000 do
          ignore (Monitor.call mon ~caller:foo bar_fn [| buf |])
        done);
    (* Tenant churn: tear one FS+WEB pair down and spawn it again, 200
       times, beside 8 live tenants (17 cubicles on 14 tags, so keys
       are virtualised). Each respawn maps the two code images its
       first spawn scanned and writes WEB's one guard entry, for its
       declared call; the gateway declares nothing on a respawn. *)
    hw_measure ~name:"spawn_churn" (fun () ->
        let sys = Httpd.Tenant.boot ~virtualise:true ~mem_bytes:(64 * 1024 * 1024) () in
        for i = 1 to 8 do
          Httpd.Tenant.spawn sys i
        done;
        ( Httpd.Tenant.mon sys,
          fun () ->
            for _ = 1 to 200 do
              Httpd.Tenant.teardown sys 1;
              Httpd.Tenant.spawn sys 1
            done ));
    (* Window-op churn on a standing window: open it for BAR, grant one
       more page, close it, then retire that page again so the window
       stays the same size. Four monitor window services per round and
       no fault, so this is the host cost of the window-op layer. *)
    hw_measure ~name:"window_churn" (fun () ->
        let mon, ctx, _foo, bar, _buf, wid =
          foo_bar_rig ~sym:"bar_fn" (fun _ _ -> 0)
        in
        let page = Api.malloc_page_aligned ctx Hw.Addr.page_size in
        ( mon,
          fun () ->
            for _ = 1 to 20_000 do
              Api.window_open ctx wid bar;
              Api.window_add ctx wid ~ptr:page ~size:Hw.Addr.page_size;
              Api.window_close ctx wid bar;
              Api.window_remove ctx wid ~ptr:page
            done ));
    (* LWIP's per-segment cycle, run as the isolated LWIP cubicle of the
       network stack: a pbuf page from ALLOC, a window over it opened
       read-only for NETDEV and destroyed again, the page freed. *)
    hw_measure ~name:"pbuf_churn" (fun () ->
        let sys = Libos.Boot.net_stack () in
        let mon = sys.Libos.Boot.mon in
        let ctx = Libos.Boot.app_ctx sys "LWIP" in
        let netdev = Monitor.lookup_cubicle mon "NETDEV" in
        let uk_palloc = Api.import "uk_palloc" and uk_pfree = Api.import "uk_pfree" in
        ( mon,
          fun () ->
            Monitor.run_as mon (Api.self ctx) (fun () ->
                for _ = 1 to 5_000 do
                  let pbuf = Api.call ctx uk_palloc [| 1 |] in
                  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
                  Api.window_add ctx ~perm:Window.R wid ~ptr:pbuf ~size:Hw.Addr.page_size;
                  Api.window_open ctx wid netdev;
                  Api.window_destroy ctx wid;
                  ignore (Api.call ctx uk_pfree [| pbuf |])
                done) ));
    (* Key churn: FOO calls 20 isolated cubicles round-robin on a
       virtualised monitor, whose 14 physical tags hold FOO and 13 of
       them. Every call faults the callee's key in and evicts the least
       recently used binding, and the callee's write to its own heap
       retags the page its last eviction walked back. *)
    hw_measure ~name:"key_churn" (fun () ->
        let mon = Monitor.create ~virtualise:true ~protection:Types.Full () in
        let cubicle name =
          Monitor.create_cubicle mon ~name ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
        in
        let foo = cubicle "FOO" in
        let callees =
          Array.init 20 (fun i ->
              let cid = cubicle (Printf.sprintf "K%02d" i) in
              let sym = Printf.sprintf "k%02d_poke" i in
              let cell = Monitor.malloc mon cid 8 in
              let fn ctx _ = Api.write_u8 ctx cell i; 0 in
              Monitor.register_exports mon cid [ { Monitor.sym; fn; stack_bytes = 0 } ];
              Monitor.import sym)
        in
        ( mon,
          fun () ->
            for _ = 1 to 250 do
              Array.iter (fun sym -> ignore (Monitor.call mon ~caller:foo sym [||])) callees
            done ));
    (* Byte stores: BAR opens a page of its heap for FOO. Each round BAR
       stores one byte, taking the page back, then FOO fills the page
       with 4,096 one-byte stores, as one store run: the first store is
       trap-and-mapped, the rest hit the TLB. The golden keys were
       taken from the equivalent [Api.write_u8] loop, so they pin the
       run to the loop's charges. The host cost of the byte-store
       path. *)
    hw_measure ~pin_attrib:true ~name:"byte_stores" (fun () ->
        let mon, _, foo, bar, _, _ = foo_bar_rig ~sym:"bar_fn" (fun _ _ -> 0) in
        let fctx = Monitor.ctx_for mon foo and bctx = Monitor.ctx_for mon bar in
        let page = Api.malloc_page_aligned bctx Hw.Addr.page_size in
        let wid = Api.window_init bctx ~klass:Mm.Page_meta.Heap in
        Api.window_add bctx wid ~ptr:page ~size:Hw.Addr.page_size;
        Api.window_open bctx wid foo;
        let bytes = Bytes.create Hw.Addr.page_size in
        ( mon,
          fun () ->
            for r = 1 to 250 do
              Monitor.run_as mon bar (fun () -> Api.write_u8 bctx page r);
              for j = 0 to Hw.Addr.page_size - 1 do
                Bytes.unsafe_set bytes j (Char.unsafe_chr ((r + j) land 0xFF))
              done;
              Monitor.run_as mon foo (fun () ->
                  Api.store_run fctx page bytes ~pos:0 ~len:Hw.Addr.page_size)
            done ));
    (* Isolated file I/O, the Fig. 2 path: the isolated APP writes a
       4 KiB page through VFSCORE to RAMFS and reads it back, 1,000
       times over a 64 KiB file. Each pwrite/pread is a crossing into
       VFSCORE and on to RAMFS, a window over APP's buffer and the
       faults that map it, so wall_ns / 2,000 is the host cost of one
       isolated file operation. *)
    hw_measure ~name:"file_io" (fun () ->
        let app = Builder.component ~heap_pages:16 ~stack_pages:2 "APP" in
        let sys =
          Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] ()
        in
        let mon = sys.Libos.Boot.mon in
        let ctx = Libos.Boot.app_ctx sys "APP" in
        let fio = Libos.Fileio.make ctx in
        let fd =
          Monitor.run_as mon (Api.self ctx) (fun () ->
              Libos.Fileio.open_file fio "/file_io.bin" ~create:true)
        in
        let buf = Api.malloc_page_aligned ctx 4096 in
        ( mon,
          fun () ->
            Monitor.run_as mon (Api.self ctx) (fun () ->
                for i = 0 to 999 do
                  let off = (i land 15) * 4096 in
                  Api.write_u32 ctx buf i;
                  ignore (Libos.Fileio.pwrite fio ~fd ~buf ~len:4096 ~off);
                  ignore (Libos.Fileio.pread fio ~fd ~buf ~len:4096 ~off)
                done) ));
    (* minidb B-tree operations in the isolated APP, on a warm cache
       that holds every page: 2,000 point finds by rowid over a
       1,000-row table, then 500 inserts, each also inserting into the
       table's secondary index at a scattered key. No transaction is
       open and no page misses, so no OS call is made: wall_ns / 2,500
       is the host cost of one query-layer B-tree operation. *)
    hw_measure ~pin_attrib:true ~name:"btree_ops" (fun () ->
        let app = Builder.component ~heap_pages:512 ~stack_pages:4 "APP" in
        let sys =
          Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] ()
        in
        let mon = sys.Libos.Boot.mon in
        let ctx = Libos.Boot.app_ctx sys "APP" in
        let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make ctx) in
        let scatter i = (i * 7919) mod 1000 in
        let row i = [ Minidb.Record.int (scatter i); Minidb.Record.Text (string_of_int i) ] in
        let db, tbl =
          Monitor.run_as mon (Api.self ctx) (fun () ->
              let db = Minidb.Db.open_db ~cache_pages:256 os ~path:"/btree_ops.db" in
              let tbl = Minidb.Db.create_table db "t" in
              for i = 1 to 1000 do
                ignore (Minidb.Db.insert db tbl (row i))
              done;
              ignore (Minidb.Db.create_index db tbl ~col:0 ~name:"t_a");
              (db, tbl))
        in
        ( mon,
          fun () ->
            Monitor.run_as mon (Api.self ctx) (fun () ->
                for i = 1 to 2000 do
                  ignore (Minidb.Db.get tbl (Int64.of_int (1 + scatter i)))
                done;
                for i = 1001 to 1500 do
                  ignore (Minidb.Db.insert db tbl (row i))
                done) ));
  ]

let hw_write_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  \"%s.wall_ns\": %.0f,\n\
        \  \"%s.wall_ns_tlb_off\": %.0f,\n\
        \  \"%s.simulated_cycles\": %d,\n\
        \  \"%s.faults\": %d,\n\
        \  \"%s.wrpkru\": %d,\n\
        \  \"%s.tlb_hit_rate\": %.4f%s\n"
        r.hw_name r.wall_ns_on r.hw_name r.wall_ns_off r.hw_name r.hw_cycles r.hw_name
        r.hw_faults r.hw_name r.hw_wrpkru r.hw_name r.hw_hit_rate
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "}\n";
  close_out oc

let hw ?(out = "BENCH_hw.json") ?golden ?write_golden () =
  heading "Software TLB: wall-clock of the simulator (simulated cycles unchanged)";
  let rows = hw_rows () in
  fprintf "%-20s %14s %14s %8s %14s %8s %8s %8s\n" "scenario" "tlb_on(ns)" "tlb_off(ns)"
    "speedup" "cycles" "faults" "wrpkru" "hitrate";
  List.iter
    (fun r ->
      fprintf "%-20s %14.0f %14.0f %7.1fx %14d %8d %8d %7.1f%%\n" r.hw_name r.wall_ns_on
        r.wall_ns_off
        (r.wall_ns_off /. r.wall_ns_on)
        r.hw_cycles r.hw_faults r.hw_wrpkru (100. *. r.hw_hit_rate))
    rows;
  hw_write_json out rows;
  fprintf "wrote %s\n" out;
  let rows =
    List.concat_map
      (fun r ->
        [
          (r.hw_name ^ ".cycles", r.hw_cycles);
          (r.hw_name ^ ".faults", r.hw_faults);
          (r.hw_name ^ ".wrpkru", r.hw_wrpkru);
        ])
      rows
    @ List.concat_map (fun r -> r.hw_attrib) rows
  in
  Option.iter (fun path -> Golden.write path rows; fprintf "wrote %s\n" path) write_golden;
  Option.iter
    (fun path -> Golden.check ~path ~rows ~ok:"simulated cycles match" ~recalibrate:"hw")
    golden

(* --- trace: event capture of the Fig. 2 write path -------------------------------- *)

(* Runs the paper's running example (1000 x 4 KiB pwrite through
   APP -> VFSCORE -> RAMFS, full protection) twice — tracing off, then
   on — and fails hard if tracing perturbed simulated behaviour; the
   same identity must hold when the traced run is sampled (--sample N)
   or streamed (--stream). The trace is exported as Chrome trace_event
   JSON and folded-stacks text; with --stream the JSON is written
   incrementally by a bus sink during the run and self-checked
   byte-equal against the ring exporter whenever the ring kept every
   event. *)
let trace ?(out = "trace.json") ?(folded = "trace.folded") ?(sample = 1) ?(stream = false) ()
    =
  heading "Telemetry trace: Fig. 2 write path (1000 x 4 KiB pwrite, full protection)";
  let run ~tracing ~configure =
    let app = Builder.component ~heap_pages:64 ~stack_pages:4 "APP" in
    let sys =
      Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] ()
    in
    let mon = sys.Libos.Boot.mon in
    Telemetry.Bus.set_tracing (Monitor.bus mon) tracing;
    configure mon;
    let ctx = Libos.Boot.app_ctx sys "APP" in
    let fio = Libos.Fileio.make ctx in
    let fd =
      Monitor.run_as mon (Api.self ctx) (fun () ->
          Libos.Fileio.open_file fio "/trace.bin" ~create:true)
    in
    let buf = Api.malloc_page_aligned ctx 4096 in
    Monitor.run_as mon (Api.self ctx) (fun () ->
        for i = 0 to 999 do
          Api.write_u32 ctx buf i;
          ignore (Libos.Fileio.pwrite fio ~fd ~buf ~len:4096 ~off:(i * 4096))
        done);
    ( mon,
      Hw.Cost.cycles (Monitor.cost mon),
      Hw.Cpu.fault_count (Monitor.cpu mon),
      Hw.Cpu.wrpkru_count (Monitor.cpu mon) )
  in
  let _, c_off, f_off, k_off = run ~tracing:false ~configure:ignore in
  let cycles_per_us = Hw.Cost.cycles_per_us in
  let streamed = Buffer.create (1 lsl 16) in
  let stream_st = ref None in
  let configure mon =
    let bus = Monitor.bus mon in
    if sample > 1 then Telemetry.Bus.set_sampling bus ~every:sample;
    if stream then begin
      let st =
        Telemetry.Export.Stream.create ~names:(cname mon) ~cycles_per_us
          ~write:(Buffer.add_string streamed) ()
      in
      stream_st := Some st;
      Telemetry.Bus.set_sink bus (Some (Telemetry.Export.Stream.entry st))
    end
  in
  let mon, c_on, f_on, k_on = run ~tracing:true ~configure in
  Option.iter Telemetry.Export.Stream.finish !stream_st;
  let mode =
    (if sample > 1 then Printf.sprintf " (sampled 1/%d)" sample else "")
    ^ if stream then " (streamed)" else ""
  in
  if (c_on, f_on, k_on) <> (c_off, f_off, k_off) then begin
    fprintf
      "FATAL: tracing%s changed simulated behaviour\n\
      \  off: cycles=%d faults=%d wrpkru=%d\n\
      \  on : cycles=%d faults=%d wrpkru=%d\n"
      mode c_off f_off k_off c_on f_on k_on;
    exit 1
  end;
  fprintf "tracing%s on/off bit-identical: cycles=%d faults=%d wrpkru=%d\n" mode c_on f_on
    k_on;
  let bus = Monitor.bus mon in
  let names = cname mon in
  let entries = Telemetry.Bus.events bus in
  fprintf "events: %d captured, %d dropped (ring capacity %d), %d sampled out, %d emitted\n"
    (Telemetry.Bus.captured bus) (Telemetry.Bus.dropped bus) (Telemetry.Bus.capacity bus)
    (Telemetry.Bus.sampled_out bus)
    (Telemetry.Bus.total_emitted bus);
  if sample > 1 && Telemetry.Bus.dropped bus > 0 then begin
    fprintf "FATAL: sampling 1/%d still overflowed the ring (%d drops)\n" sample
      (Telemetry.Bus.dropped bus);
    exit 1
  end;
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  if stream then begin
    write out (Buffer.contents streamed);
    fprintf "wrote %s (streamed Chrome trace_event JSON, written during the run)\n" out;
    if Telemetry.Bus.dropped bus = 0 then begin
      let ring_json = Telemetry.Export.trace_json ~names ~cycles_per_us entries in
      if not (String.equal ring_json (Buffer.contents streamed)) then begin
        fprintf "FATAL: streamed export differs from ring exporter (%d vs %d bytes)\n"
          (Buffer.length streamed) (String.length ring_json);
        exit 1
      end;
      fprintf "stream byte-match OK: streamed output identical to ring exporter\n"
    end
    else
      fprintf
        "(ring dropped %d events, so the ring exporter holds a suffix only —\n\
        \ byte-match self-check skipped; the streamed file has the full trace)\n"
        (Telemetry.Bus.dropped bus)
  end
  else begin
    write out (Telemetry.Export.trace_json ~names ~cycles_per_us entries);
    fprintf "wrote %s (Chrome trace_event JSON; load in chrome://tracing or Perfetto)\n" out
  end;
  write folded (Telemetry.Export.folded_stacks ~names ~until:c_on entries);
  fprintf "wrote %s (folded stacks; feed to flamegraph.pl or speedscope)\n" folded;
  fprintf "\nper-cubicle cycle attribution of the traced run:\n";
  attrib_table mon

(* --- CubiCheck: static isolation analyzer + trace-driven detectors ---------- *)

(* Attach the replay window mirror to [mon]'s telemetry bus, seeded from
   the monitor's current ACLs (standing __init windows were granted
   before tracing starts); [sink mirror] receives every event while
   tracing is on. Bus sinks charge no simulated cycles, so golden curves
   are unaffected. *)
let attach_mirror mon ~sink =
  let bus = Monitor.bus mon in
  let mirror = Analysis.Replay.create ~name_of:(cname mon) in
  Analysis.Replay.seed_from_monitor mirror mon;
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_sink bus (Some (sink mirror));
  Telemetry.Bus.set_tracing bus true;
  mirror

let detach_mirror mon =
  Telemetry.Bus.set_tracing (Monitor.bus mon) false;
  Telemetry.Bus.set_sink (Monitor.bus mon) None

(* The online race gate's verdict: detach the mirror and abort the run
   with the findings table if it saw any violation. *)
let race_verdict mon mirror ~label =
  detach_mirror mon;
  match Analysis.Replay.findings mirror with
  | [] -> ()
  | violations ->
      fprintf "FATAL: %s: online race sink flagged %d violation(s):\n" label
        (List.length violations);
      Analysis.Report.print_table Format.std_formatter violations;
      exit 1

(* Dynamic plane: trace the workload through a bus sink — so ring
   capacity never truncates the trace — and judge every foreign access
   against the mirrored ACLs. *)
let traced_replay sys workload =
  let mon = sys.Libos.Boot.mon in
  let acc = ref [] in
  let r = attach_mirror mon ~sink:(fun _ e -> acc := e :: !acc) in
  workload ();
  detach_mirror mon;
  let entries = List.rev !acc in
  Analysis.Replay.run r entries;
  (* the same trace also feeds summary inference: per-edge access modes
     cross-checked against the hand-written Iface summaries *)
  let inf = Analysis.Infer.create () in
  Analysis.Infer.run inf entries;
  (Analysis.Replay.findings r, inf, List.length entries)

(* The inference gate's own regression: a deliberately weakened summary
   (all declared accesses dropped) must fail the cross-check, exactly
   like a stale golden file. *)
let weaken_summary (prog : Analysis.Ir.program) ~comp ~sym =
  {
    prog with
    Analysis.Ir.comps =
      List.map
        (fun (c : Analysis.Ir.comp) ->
          if c.Analysis.Ir.name <> comp then c
          else
            {
              c with
              Analysis.Ir.iface =
                List.map
                  (fun (fd : Iface.fundecl) ->
                    if fd.Iface.fd_sym = sym then
                      Iface.fundecl ~derefs:[] ~writes:[] sym fd.Iface.fd_body
                    else fd)
                  c.Analysis.Ir.iface;
            })
        prog.Analysis.Ir.comps;
  }

let default_baseline = "bench/analysis_baseline.json"

let analyze ?(out = "ANALYSIS.json") ?baseline ?write_baseline () =
  heading "CubiCheck: static isolation analysis + trace-driven dynamic detectors";
  (* fail closed: without an explicit --baseline, diff against the
     checked-in baseline when present so a regression still exits
     non-zero; only a missing file falls through to zero-tolerance *)
  let baseline =
    match baseline with
    | Some _ -> baseline
    | None -> if Sys.file_exists default_baseline then Some default_baseline else None
  in
  let shipped = ref [] in
  let record label fs =
    fprintf "\n[%s] %d finding(s)\n" label (List.length fs);
    if fs = [] then fprintf "  (clean)\n"
    else Analysis.Report.print_table Format.std_formatter fs;
    shipped := !shipped @ fs
  in
  (* static plane: the IR comes from each component's interface summary,
     checked against the trampoline table and window discipline *)
  let fs_sys =
    Libos.Boot.fs_stack ~mem_bytes:(192 * 1024 * 1024)
      ~extra:
        [
          ( Builder.component ~heap_pages:512 ~stack_pages:4 ~entries:Libos.Fileio.entries "APP",
            Types.Isolated );
        ]
      ()
  in
  record "static: fs_stack + APP (the Fig. 6 SQLite deployment)"
    (Analysis.Static.run_built fs_sys.Libos.Boot.built);
  let net_sys =
    Libos.Boot.net_stack ~mem_bytes:(256 * 1024 * 1024)
      ~extra:[ (Httpd.Server.component (), Types.Isolated) ]
      ()
  in
  record "static: net_stack + NGINX (the Fig. 7 deployment)"
    (Analysis.Static.run_built net_sys.Libos.Boot.built);
  (* dynamic plane: replay real traced workloads through the ACL mirror *)
  let fs_dyn, fs_inf, fs_events =
    traced_replay fs_sys (fun () ->
        let os =
          Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx fs_sys "APP"))
        in
        ignore (Minidb.Speedtest.run_all os ~path:"/analyze.db" ~n:4 ~measure:(fun f -> f ())))
  in
  record
    (Printf.sprintf "dynamic: speedtest1 (n=4) replayed through the window mirror, %d events"
       fs_events)
    fs_dyn;
  let net_dyn, net_inf, net_events =
    traced_replay net_sys (fun () ->
        let server = Httpd.Server.start net_sys in
        let siege = Httpd.Siege.make net_sys server in
        let fio = Libos.Fileio.make (Libos.Boot.app_ctx net_sys "NGINX") in
        Libos.Fileio.write_file fio "/index.html" (String.make 16384 'x');
        let r = Httpd.Siege.fetch siege "/index.html" in
        if r.Httpd.Siege.status <> 200 then begin
          fprintf "FATAL: analyze workload: GET /index.html returned %d\n" r.Httpd.Siege.status;
          exit 1
        end;
        ignore (Httpd.Siege.fetch_pipelined siege [ "/index.html"; "/missing.bin" ]))
  in
  record
    (Printf.sprintf "dynamic: httpd GET + pipelined requests replayed, %d events" net_events)
    net_dyn;
  (* inference plane: trace-derived summaries vs the hand-written ones —
     a summary claiming less than the trace observed is stale *)
  let fs_prog = Analysis.Ir.of_built fs_sys.Libos.Boot.built in
  let net_prog = Analysis.Ir.of_built net_sys.Libos.Boot.built in
  let describe label inf prog =
    let obs = Analysis.Infer.observations inf prog in
    fprintf "\n[%s] %d traced interface edge(s):\n" label (List.length obs);
    List.iter
      (fun (o : Analysis.Infer.observation) ->
        if o.Analysis.Infer.o_sym <> Analysis.Infer.toplevel_sym then
          fprintf "  %s.%s %s %s\n" o.Analysis.Infer.o_comp o.Analysis.Infer.o_sym
            (match (o.Analysis.Infer.o_read, o.Analysis.Infer.o_write) with
            | _, true -> "writes"
            | true, false -> "reads"
            | false, false -> "touches")
            o.Analysis.Infer.o_owner)
      obs
  in
  describe "infer: fs stack" fs_inf fs_prog;
  record "cross-check: trace-derived vs hand-written summaries (fs stack)"
    (Analysis.Infer.check fs_inf fs_prog);
  describe "infer: net stack" net_inf net_prog;
  record "cross-check: trace-derived vs hand-written summaries (net stack)"
    (Analysis.Infer.check net_inf net_prog);
  (* the FAT stack (UKFAT over BLKDEV): a file written and read back
     through it, so its summaries face a trace too *)
  let fat_sys =
    Libos.Boot.fat_stack
      ~disk:(Libos.Blkdev.create_disk ~sectors:1024)
      ~extra:
        [
          ( Builder.component ~heap_pages:64 ~stack_pages:4 ~entries:Libos.Fileio.entries "APP",
            Types.Isolated );
        ]
      ()
  in
  let fat_dyn, fat_inf, fat_events =
    traced_replay fat_sys (fun () ->
        let fio = Libos.Fileio.make (Libos.Boot.app_ctx fat_sys "APP") in
        let data = String.init 5000 (fun i -> Char.chr (i * 7 land 0xff)) in
        Libos.Fileio.write_file fio "/fat.bin" data;
        if Libos.Fileio.read_file fio "/fat.bin" <> data then begin
          fprintf "FATAL: analyze workload: /fat.bin read back differs on the FAT stack\n";
          exit 1
        end)
  in
  record
    (Printf.sprintf "dynamic: FAT write + read-back replayed, %d events" fat_events)
    fat_dyn;
  let fat_prog = Analysis.Ir.of_built fat_sys.Libos.Boot.built in
  describe "infer: fat stack" fat_inf fat_prog;
  record "cross-check: trace-derived vs hand-written summaries (fat stack)"
    (Analysis.Infer.check fat_inf fat_prog);
  (* the gate's own regression: a deliberately stale summary must fail.
     The net trace observes ramfs_pread writing the app's read buffer;
     dropping that claim from the summary must trip the cross-check. *)
  let stale = weaken_summary net_prog ~comp:"RAMFS" ~sym:"ramfs_pread" in
  let stale_caught =
    List.exists
      (fun f -> f.Analysis.Report.key = "summary:write:RAMFS.ramfs_pread")
      (Analysis.Infer.check net_inf stale)
  in
  if not stale_caught then begin
    fprintf
      "\nFATAL: stale-summary self-test: weakening RAMFS.ramfs_pread went uncaught — \
       the inference cross-check is not gating\n";
    exit 1
  end;
  fprintf "\nstale-summary self-test OK: a weakened RAMFS.ramfs_pread summary fails the gate\n";
  (* the seeded violations: the analyzer's own regression harness — one
     deliberately broken example per detector, each of which must trip *)
  let scenarios = Analysis.Seeded.all () in
  fprintf "\nSeeded violations (each must be caught, with the expected severity):\n";
  fprintf "  %-22s %-16s %-9s %s\n" "scenario" "pass" "severity" "verdict";
  List.iter
    (fun (s : Analysis.Seeded.scenario) ->
      fprintf "  %-22s %-16s %-9s %s\n" s.Analysis.Seeded.sc_name s.Analysis.Seeded.expect_pass
        (Analysis.Report.severity_name s.Analysis.Seeded.expect_severity)
        (if Analysis.Seeded.caught s then "caught" else "MISSED"))
    scenarios;
  let missed =
    List.filter (fun s -> not (Analysis.Seeded.caught s)) scenarios
  in
  let shipped = Analysis.Report.sort (Analysis.Report.dedup !shipped) in
  let oc = open_out out in
  output_string oc
    (Analysis.Report.to_json
       ~extra:
         [
           ("seeded_total", string_of_int (List.length scenarios));
           ("seeded_caught", string_of_int (List.length scenarios - List.length missed));
         ]
       shipped);
  close_out oc;
  fprintf "\nwrote %s\n" out;
  (match write_baseline with
  | Some path ->
      Golden.write path (Analysis.Report.baseline_counts shipped);
      fprintf "wrote baseline (%d key(s)) to %s\n"
        (List.length (Analysis.Report.baseline_counts shipped))
        path
  | None -> ());
  let fail = ref false in
  (match baseline with
  | Some path ->
      let baseline = Golden.load path ~generate:"analyze --write-baseline" in
      let fresh, resolved = Analysis.Report.diff_baseline ~baseline shipped in
      if fresh <> [] then begin
        fprintf "\nFINDINGS ABOVE BASELINE (%s):\n" path;
        List.iter (fun (k, c) -> fprintf "  %s (x%d)\n" k c) fresh;
        fail := true
      end
      else fprintf "\nbaseline check OK: no findings above %s\n" path;
      if resolved <> [] then begin
        fprintf "baseline entries no longer observed (re-baseline with --write-baseline):\n";
        List.iter (fun (k, c) -> fprintf "  %s (x%d)\n" k c) resolved
      end
  | None ->
      if shipped <> [] then begin
        fprintf "\n%d finding(s) in the shipped stacks and no --baseline to excuse them\n"
          (List.length shipped);
        fail := true
      end);
  if missed <> [] then begin
    fprintf "\nFATAL: %d seeded violation(s) went uncaught\n" (List.length missed);
    fail := true
  end;
  if !fail then exit 1;
  fprintf
    "\nanalyze OK: shipped stacks hold the window discipline, trace-derived summaries \
     cross-check clean, all %d seeded violations caught\n"
    (List.length scenarios)

(* --- smp: multi-core throughput scaling -> BENCH_smp.json ------------------------- *)

(* Drive a fixed batch of siege connections through the sharded NGINX
   deployment on an N-core machine: one SO_REUSEPORT worker per core,
   one NETDEV ring per core, frames steered to ring [conn mod N] by the
   host bridge (RSS by connection id). All requests are injected up
   front; the SMP scheduler then runs one worker thread per core until
   every shard has served its share. The measurement is the per-core
   cycle delta across the serving phase: the makespan (the maximum
   per-core counter) is the N-core machine's elapsed time, and the
   scaling curve is makespan(1) / makespan(N). Everything is simulated
   cycles, so the curve is deterministic and golden-checked in CI. *)

let smp_conns = 64
let smp_file_size = 8192

type smp_row = {
  smp_ncores : int;
  smp_makespan : int;  (* max per-core cycle delta over the serving phase *)
  smp_total : int;  (* summed cycle delta (the single-timeline cost) *)
  smp_core_deltas : int array;
  smp_migrations : int;
  smp_steals : int;
  smp_shootdowns : int;
}

let smp_run ~ncores =
  let app = Httpd.Server.component ~workers:ncores () in
  let sys =
    Libos.Boot.net_stack ~ncores ~nrings:ncores ~mem_bytes:(256 * 1024 * 1024)
      ~extra:[ (app, Types.Isolated) ]
      ()
  in
  let mon = sys.Libos.Boot.mon in
  let cpu = Monitor.cpu mon in
  let cost = Monitor.cost mon in
  let netdev = Option.get sys.Libos.Boot.netdev in
  let path = Printf.sprintf "/f%d.bin" smp_file_size in
  Libos.Boot.populate sys ~as_app:"NGINX" [ (path, String.make smp_file_size 'x') ];
  let workers = Array.init ncores (fun shard -> Httpd.Server.start ~shard sys) in
  (* online race gate: the ACL mirror rides the telemetry bus for the
     whole serving phase, judging every foreign access as it happens.
     The golden scaling curve is unaffected. *)
  let mirror = attach_mirror mon ~sink:Analysis.Replay.online_sink in
  let per_shard = Array.make ncores 0 in
  for conn = 1 to smp_conns do
    let ring = conn mod ncores in
    per_shard.(ring) <- per_shard.(ring) + 1;
    Libos.Netdev.host_inject ~ring netdev
      (Libos.Lwip.Frame.encode ~conn ~kind:Libos.Lwip.Frame.Syn ~payload:"" ());
    Libos.Netdev.host_inject ~ring netdev
      (Libos.Lwip.Frame.encode ~conn ~kind:Libos.Lwip.Frame.Data
         ~payload:(Printf.sprintf "GET %s HTTP/1.0\r\nHost: sim\r\n\r\n" path)
         ())
  done;
  (* serving phase: one worker thread per core, pinned to its shard's
     core (work stealing may still migrate a straggler) *)
  let bases = Array.init ncores (fun c -> Hw.Cost.core_cycles cost c) in
  let c0 = Hw.Cost.cycles cost in
  let nginx = (Libos.Boot.app_ctx sys "NGINX").Monitor.self in
  let sched = Libos.Sched.create mon in
  Array.iteri
    (fun shard w ->
      ignore
        (Libos.Sched.spawn ~core:shard sched nginx (fun () ->
             let stalled = ref 0 in
             while Httpd.Server.requests_served w < per_shard.(shard) do
               if Httpd.Server.poll w = 0 then begin
                 incr stalled;
                 if !stalled > 100 then
                   Types.error "smp: worker %d stalled (%d/%d served)" shard
                     (Httpd.Server.requests_served w)
                     per_shard.(shard)
               end
               else stalled := 0;
               Libos.Sched.yield ()
             done)))
    workers;
  Libos.Sched.run sched;
  let deltas = Array.init ncores (fun c -> Hw.Cost.core_cycles cost c - bases.(c)) in
  let total_delta = Hw.Cost.cycles cost - c0 in
  if Array.fold_left ( + ) 0 deltas <> total_delta then begin
    fprintf "FATAL: smp %d cores: per-core deltas sum to %d, total delta %d\n" ncores
      (Array.fold_left ( + ) 0 deltas)
      total_delta;
    exit 1
  end;
  (* the telemetry invariant, extended per core: each core plane of the
     attribution table must equal the machine's per-core counter *)
  let attrib = cost.Hw.Cost.attrib in
  for c = 0 to Hw.Cpu.ncores (Monitor.cpu mon) - 1 do
    if Telemetry.Attrib.core_total attrib ~core:c <> Hw.Cost.core_cycles cost c then begin
      fprintf "FATAL: smp %d cores: attrib core %d total %d <> core cycles %d\n" ncores c
        (Telemetry.Attrib.core_total attrib ~core:c)
        (Hw.Cost.core_cycles cost c);
      exit 1
    end
  done;
  race_verdict mon mirror ~label:(Printf.sprintf "smp %d cores" ncores);
  let served = Array.fold_left (fun acc w -> acc + Httpd.Server.requests_served w) 0 workers in
  if served <> smp_conns then begin
    fprintf "FATAL: smp %d cores: served %d of %d requests\n" ncores served smp_conns;
    exit 1
  end;
  (* every connection must have received a complete 200 response *)
  let by_conn = Hashtbl.create smp_conns in
  List.iter
    (fun f ->
      let c, kind, seq, payload = Libos.Lwip.Frame.decode f in
      if kind = Libos.Lwip.Frame.Data then begin
        let r =
          match Hashtbl.find_opt by_conn c with
          | Some r -> r
          | None ->
              let r = Libos.Lwip.Reassembly.create () in
              Hashtbl.replace by_conn c r;
              r
        in
        Libos.Lwip.Reassembly.push r ~seq payload
      end)
    (Libos.Netdev.host_collect netdev);
  for conn = 1 to smp_conns do
    let resp =
      match Hashtbl.find_opt by_conn conn with
      | Some r -> Libos.Lwip.Reassembly.pop_ready r
      | None -> ""
    in
    if
      String.length resp <= smp_file_size
      || not (String.length resp > 12 && String.sub resp 9 3 = "200")
    then begin
      fprintf "FATAL: smp %d cores: conn %d got a bad response (%d bytes)\n" ncores conn
        (String.length resp);
      exit 1
    end
  done;
  {
    smp_ncores = ncores;
    smp_makespan = Array.fold_left max 0 deltas;
    smp_total = total_delta;
    smp_core_deltas = deltas;
    smp_migrations = Libos.Sched.migrations sched;
    smp_steals = Libos.Sched.steals sched;
    smp_shootdowns = Hw.Cpu.shootdown_count cpu;
  }

let smp_json_rows rows =
  List.concat_map
    (fun r ->
      let key f = Printf.sprintf "smp%d.%s" r.smp_ncores f in
      let base = (List.hd rows).smp_makespan in
      [
        (key "makespan_cycles", r.smp_makespan);
        (key "total_cycles", r.smp_total);
        (key "speedup_x100", 100 * base / r.smp_makespan);
        (key "migrations", r.smp_migrations);
        (key "steals", r.smp_steals);
        (key "shootdowns", r.smp_shootdowns);
      ]
      @ Array.to_list
          (Array.mapi (fun c d -> (key (Printf.sprintf "core%d_cycles" c), d)) r.smp_core_deltas))
    rows

let smp ?(out = "BENCH_smp.json") ?golden ?write_golden () =
  heading
    (Printf.sprintf "SMP scale-out: %d siege connections over 1/2/4/8 simulated cores"
       smp_conns);
  let rows = List.map (fun n -> smp_run ~ncores:n) [ 1; 2; 4; 8 ] in
  let base = (List.hd rows).smp_makespan in
  fprintf "%6s %16s %16s %8s %11s %7s %7s %11s\n" "cores" "makespan(cyc)" "total(cyc)"
    "speedup" "efficiency" "migr" "steals" "shootdowns";
  List.iter
    (fun r ->
      let speedup = float_of_int base /. float_of_int r.smp_makespan in
      fprintf "%6d %16d %16d %7.2fx %10.1f%% %7d %7d %11d\n" r.smp_ncores r.smp_makespan
        r.smp_total speedup
        (100. *. speedup /. float_of_int r.smp_ncores)
        r.smp_migrations r.smp_steals r.smp_shootdowns)
    rows;
  (* the acceptance floors: >=1.7x at 2 cores, >=3x at 4 cores *)
  List.iter
    (fun (n, floor_x100) ->
      match List.find_opt (fun r -> r.smp_ncores = n) rows with
      | None -> ()
      | Some r ->
          let x100 = 100 * base / r.smp_makespan in
          if x100 < floor_x100 then begin
            fprintf "FATAL: %d-core speedup %d.%02dx below the %d.%02dx floor\n" n
              (x100 / 100) (x100 mod 100) (floor_x100 / 100) (floor_x100 mod 100);
            exit 1
          end)
    [ (2, 170); (4, 300) ];
  fprintf "scaling floors OK: >=1.70x at 2 cores, >=3.00x at 4 cores\n";
  fprintf "race sink OK: online window mirror saw zero violations on every soak\n";
  Golden.emit ?golden ?write_golden ~out ~what:"scaling curve" ~ok:"scaling curve matches"
    ~recalibrate:"smp" (smp_json_rows rows)

(* --- sendfile: zero-copy vs copy serving -> BENCH_zerocopy.json -------------------- *)

(* The tentpole measurement: serve the same file over the same request
   sequence with the pread+send copy path and with the vfs_sendfile
   grant-and-forward path, and decompose both into attribution
   categories per request. The zero-copy path must cut the memcpy
   share by at least 5x (only response headers and 11-byte frame
   headers still move through the simulated memory); everything is
   deterministic, so the whole decomposition is golden-checked. *)

let zc_requests = 32
let zc_file_size = 64 * 1024

type zc_row = {
  zc_mode : string;
  zc_total : int;  (* cycles over the serving phase *)
  zc_cats : (Telemetry.Attrib.category * int) list;
  zc_faults : int;
  zc_window_ops : int;
}

let zc_run ~zerocopy =
  let app = Httpd.Server.component () in
  let sys =
    Libos.Boot.net_stack ~mem_bytes:(256 * 1024 * 1024) ~extra:[ (app, Types.Isolated) ] ()
  in
  let mon = sys.Libos.Boot.mon in
  let path = Printf.sprintf "/f%d.bin" zc_file_size in
  let body = String.init zc_file_size (fun i -> Char.chr (32 + (i * 131 mod 95))) in
  Libos.Boot.populate sys ~as_app:"NGINX" [ (path, body) ];
  let server = Httpd.Server.start ~zerocopy sys in
  let siege = Httpd.Siege.make sys server in
  let cost = Monitor.cost mon in
  let attrib = cost.Hw.Cost.attrib in
  let stats = Monitor.stats mon in
  let cat c = Telemetry.Attrib.category_total attrib c in
  let mode = if zerocopy then "zerocopy" else "copy" in
  let cycles0 = Hw.Cost.cycles cost in
  let cats0 = List.map (fun c -> (c, cat c)) Telemetry.Attrib.categories in
  let faults0 = Stats.faults stats in
  let wops0 = Stats.window_ops stats in
  for req = 1 to zc_requests do
    let r = Httpd.Siege.fetch siege path in
    if r.Httpd.Siege.status <> 200 || r.Httpd.Siege.body <> body then begin
      fprintf "FATAL: sendfile (%s): request %d got status %d, %d body bytes (want 200, %d)\n"
        mode req r.Httpd.Siege.status
        (String.length r.Httpd.Siege.body)
        zc_file_size;
      exit 1
    end
  done;
  (* the sum-to-total invariant must hold on the full timeline *)
  if Telemetry.Attrib.total attrib <> Hw.Cost.cycles cost then begin
    fprintf "FATAL: sendfile (%s): attribution total %d <> Cost.cycles %d\n" mode
      (Telemetry.Attrib.total attrib) (Hw.Cost.cycles cost);
    exit 1
  end;
  let row =
    {
      zc_mode = mode;
      zc_total = Hw.Cost.cycles cost - cycles0;
      zc_cats =
        List.map
          (fun c -> (c, cat c - List.assoc c cats0))
          Telemetry.Attrib.categories;
      zc_faults = Stats.faults stats - faults0;
      zc_window_ops = Stats.window_ops stats - wops0;
    }
  in
  (* and the serving-phase deltas must decompose exactly too *)
  if List.fold_left (fun acc (_, v) -> acc + v) 0 row.zc_cats <> row.zc_total then begin
    fprintf "FATAL: sendfile (%s): category deltas do not sum to the cycle delta\n" mode;
    exit 1
  end;
  row

let zc_json_rows rows =
  List.concat_map
    (fun r ->
      let key f = Printf.sprintf "%s.%s" r.zc_mode f in
      [
        (key "total_cycles", r.zc_total);
        (key "cycles_per_req", r.zc_total / zc_requests);
        (key "faults", r.zc_faults);
        (key "window_ops", r.zc_window_ops);
      ]
      @ List.map
          (fun (c, v) ->
            (key (Telemetry.Attrib.cat_name c ^ "_cycles_per_req"), v / zc_requests))
          r.zc_cats)
    rows

let sendfile ?(out = "BENCH_zerocopy.json") ?golden ?write_golden () =
  heading
    (Printf.sprintf "Zero-copy sendfile: %d requests for a %d KiB file, copy vs grant-and-forward"
       zc_requests (zc_file_size / 1024));
  let rows = [ zc_run ~zerocopy:false; zc_run ~zerocopy:true ] in
  fprintf "%-20s" "per request";
  List.iter (fun r -> fprintf "%14s" r.zc_mode) rows;
  fprintf "%10s\n" "ratio";
  let per_req v = v / zc_requests in
  List.iter
    (fun c ->
      fprintf "%-20s" (Telemetry.Attrib.cat_name c ^ " cycles");
      List.iter (fun r -> fprintf "%14d" (per_req (List.assoc c r.zc_cats))) rows;
      match rows with
      | [ copy; zc ] ->
          let cv = List.assoc c copy.zc_cats and zv = List.assoc c zc.zc_cats in
          if zv > 0 then fprintf "%9.2fx\n" (float_of_int cv /. float_of_int zv)
          else fprintf "%10s\n" "-"
      | _ -> fprintf "\n")
    Telemetry.Attrib.categories;
  fprintf "%-20s" "total cycles";
  List.iter (fun r -> fprintf "%14d" (per_req r.zc_total)) rows;
  fprintf "\n%-20s" "faults";
  List.iter (fun r -> fprintf "%14d" r.zc_faults) rows;
  fprintf "\n%-20s" "window ops";
  List.iter (fun r -> fprintf "%14d" r.zc_window_ops) rows;
  fprintf "\n";
  (match rows with
  | [ copy; zc ] ->
      let cm = List.assoc Telemetry.Attrib.Memcpy copy.zc_cats in
      let zm = List.assoc Telemetry.Attrib.Memcpy zc.zc_cats in
      if zm <= 0 || cm < 5 * zm then begin
        fprintf "FATAL: memcpy cycles/request %d (copy) vs %d (zero-copy): below the 5x floor\n"
          (cm / zc_requests) (zm / zc_requests);
        exit 1
      end;
      fprintf "memcpy floor OK: %.1fx fewer data-copy cycles on the zero-copy path\n"
        (float_of_int cm /. float_of_int zm)
  | _ -> ());
  Golden.emit ?golden ?write_golden ~out ~what:"zero-copy decomposition"
    ~ok:"zero-copy decomposition matches" ~recalibrate:"sendfile" (zc_json_rows rows)

(* --- keys: key virtualisation under multi-tenant pressure -> BENCH_keys.json ------ *)

(* The key-pressure curve: one FS+WEB cubicle pair per tenant behind a
   shared gateway, scaled 8 -> 256 tenants over the same 14 physical
   MPK tags. Round-robin traffic touches every tenant in turn, so each
   request faults the tenant's keys back in and evicts someone else's
   — the key multiplexer's LRU at full churn. Before serving, every
   fourth tenant is torn down and respawned so recycled cids and
   virtual keys carry live traffic. Responses are checked byte-for-byte
   against a host-side oracle and against a no-protection run of the
   same workload (no keys, hence no evictions), the online race mirror
   rides the whole serving phase, and the Keymux attribution category
   must decompose exactly into fault-ins, page retags and shootdowns
   priced at the model's rates. Each step also counts the guard entries
   the live cubicles hold against the call edges their summaries
   declare and the (caller, callee) edges the serving phase crossed:
   guard entries come only from declared edges, and every declared
   edge is crossed, so the three counts must be equal at every step. *)

let keys_steps = [ 8; 32; 64; 128; 256 ]
let keys_rounds = 2

type keys_row = {
  k_tenants : int;
  k_cubicles : int;
  k_requests : int;
  k_total : int;  (* cycles over the serving phase *)
  k_fault_ins : int;
  k_evictions : int;
  k_retag_pages : int;
  k_shootdowns : int;
  k_guards : int;  (* guard entries over every live cubicle *)
  k_declared : int;  (* cross-cubicle call edges the summaries declare *)
  k_edges : int;  (* (caller, callee) edges the serving phase crossed *)
}

let keys_req ~tenant ~round =
  let off = ((tenant * 7) + (round * 13)) mod 256 in
  let len = 64 + (((tenant * 31) + round) mod 192) in
  (off, len)

let keys_serve sys ~tenants ~check =
  let responses = ref [] in
  for round = 0 to keys_rounds - 1 do
    for i = 1 to tenants do
      let off, len = keys_req ~tenant:i ~round in
      let r = Httpd.Tenant.request sys ~tenant:i ~off ~len in
      if check && r <> Httpd.Tenant.expected ~tenant:i ~off ~len then begin
        fprintf "FATAL: keys: tenant %d round %d: response differs from the oracle\n" i round;
        exit 1
      end;
      responses := r :: !responses
    done
  done;
  List.rev !responses

let keys_boot ?protection ?virtualise tenants =
  let sys = Httpd.Tenant.boot ?protection ?virtualise () in
  for i = 1 to tenants do
    Httpd.Tenant.spawn sys i
  done;
  (* lifecycle churn: every fourth tenant dies and comes back, so its
     respawn serves through a recycled cid and virtual key *)
  let i = ref 1 in
  while !i <= tenants do
    Httpd.Tenant.teardown sys !i;
    Httpd.Tenant.spawn sys !i;
    i := !i + 4
  done;
  sys

let keys_run ~tenants =
  let sys = keys_boot ~virtualise:true tenants in
  let mon = Httpd.Tenant.mon sys in
  let cost = Monitor.cost mon in
  let km =
    match Monitor.keymux mon with
    | Some km -> km
    | None ->
        fprintf "FATAL: keys: monitor booted without a key multiplexer\n";
        exit 1
  in
  let cubicles = List.length (Monitor.live_cids mon) in
  (* online race gate over the serving phase, as in the smp bench *)
  let mirror = attach_mirror mon ~sink:Analysis.Replay.online_sink in
  let st = Hw.Keymux.stats km in
  let c0 = Hw.Cost.cycles cost in
  let f0 = st.Hw.Keymux.fault_ins
  and e0 = st.Hw.Keymux.evictions
  and r0 = st.Hw.Keymux.retag_pages
  and s0 = st.Hw.Keymux.key_shootdowns in
  let responses = keys_serve sys ~tenants ~check:true in
  race_verdict mon mirror ~label:(Printf.sprintf "keys %d tenants" tenants);
  (* whole-run pricing invariant: every cycle in the Keymux category is
     a fault-in, a page retag or a PKRU shootdown at the model's exact
     rates — nothing else may bill the virtualisation layer *)
  let model = cost.Hw.Cost.model in
  let priced =
    (st.Hw.Keymux.fault_ins * model.Hw.Cost.key_reassign)
    + (st.Hw.Keymux.retag_pages * model.Hw.Cost.pkey_set)
    + (st.Hw.Keymux.key_shootdowns * model.Hw.Cost.wrpkru)
  in
  let km_total = Telemetry.Attrib.category_total cost.Hw.Cost.attrib Telemetry.Attrib.Keymux in
  if km_total <> priced then begin
    fprintf
      "FATAL: keys %d tenants: Keymux category %d cycles, but %d fault-ins + %d retags + %d \
       shootdowns price to %d\n"
      tenants km_total st.Hw.Keymux.fault_ins st.Hw.Keymux.retag_pages
      st.Hw.Keymux.key_shootdowns priced;
    exit 1
  end;
  (* no-eviction baseline: the same spawn/churn/request schedule with
     protection off must produce byte-identical responses. Virtual keys
     are still allocated (they are unlimited) but with MPK off they are
     never resolved, so no key is ever faulted in or evicted. *)
  let base =
    keys_serve (keys_boot ~protection:Types.None_ ~virtualise:true tenants) ~tenants ~check:false
  in
  if base <> responses then begin
    fprintf "FATAL: keys %d tenants: responses differ from the no-protection baseline\n" tenants;
    exit 1
  end;
  {
    k_tenants = tenants;
    k_cubicles = cubicles;
    k_requests = List.length responses;
    k_total = Hw.Cost.cycles cost - c0;
    k_fault_ins = st.Hw.Keymux.fault_ins - f0;
    k_evictions = st.Hw.Keymux.evictions - e0;
    k_retag_pages = st.Hw.Keymux.retag_pages - r0;
    k_shootdowns = st.Hw.Keymux.key_shootdowns - s0;
    k_guards =
      List.fold_left
        (fun acc cid ->
          acc + Trampoline.guard_entries (Httpd.Tenant.built sys).Builder.trampolines cid)
        0 (Monitor.live_cids mon);
    k_declared =
      List.length
        (List.sort_uniq compare
           (Analysis.Callgraph.edges (Analysis.Ir.of_built (Httpd.Tenant.built sys))));
    k_edges = List.length (Stats.edges (Monitor.stats mon));
  }

let keys_json_rows rows =
  List.concat_map
    (fun r ->
      let key f = Printf.sprintf "keys%d.%s" r.k_tenants f in
      [
        (key "cubicles", r.k_cubicles);
        (key "requests", r.k_requests);
        (key "total_cycles", r.k_total);
        (key "cycles_per_req", r.k_total / r.k_requests);
        (key "fault_ins", r.k_fault_ins);
        (key "evictions", r.k_evictions);
        (key "retag_pages", r.k_retag_pages);
        (key "shootdowns", r.k_shootdowns);
        (key "guard_entries", r.k_guards);
        (key "declared_edges", r.k_declared);
        (key "call_edges", r.k_edges);
      ])
    rows

let keys ?(out = "BENCH_keys.json") ?golden ?write_golden () =
  heading
    (Printf.sprintf
       "Key-pressure: %d..%d tenants (2 cubicles each + gateway) over 14 physical MPK tags"
       (List.hd keys_steps)
       (List.nth keys_steps (List.length keys_steps - 1)));
  let rows = List.map (fun n -> keys_run ~tenants:n) keys_steps in
  fprintf "%8s %9s %9s %14s %10s %10s %10s %11s %7s %9s %6s\n" "tenants" "cubicles" "requests"
    "cyc/req" "fault-ins" "evictions" "retags" "shootdowns" "guards" "declared" "edges";
  List.iter
    (fun r ->
      fprintf "%8d %9d %9d %14d %10d %10d %10d %11d %7d %9d %6d\n" r.k_tenants r.k_cubicles
        r.k_requests (r.k_total / r.k_requests) r.k_fault_ins r.k_evictions r.k_retag_pages
        r.k_shootdowns r.k_guards r.k_declared r.k_edges)
    rows;
  let top = List.nth rows (List.length rows - 1) in
  if top.k_cubicles < 256 then begin
    fprintf "FATAL: keys: top step ran %d concurrent cubicles, need >= 256\n" top.k_cubicles;
    exit 1
  end;
  if top.k_evictions <= (List.hd rows).k_evictions then begin
    fprintf "FATAL: keys: eviction count did not grow with tenant count (%d -> %d)\n"
      (List.hd rows).k_evictions top.k_evictions;
    exit 1
  end;
  fprintf "scale floor OK: %d concurrent cubicles multiplexed over 14 physical tags\n"
    top.k_cubicles;
  List.iter
    (fun r ->
      if r.k_guards <> r.k_edges || r.k_declared <> r.k_edges then begin
        fprintf
          "FATAL: keys: %d guard entries and %d declared edges at %d tenants, for %d crossed \
           edges\n"
          r.k_guards r.k_declared r.k_tenants r.k_edges;
        exit 1
      end)
    rows;
  fprintf "guard floor OK: guard entries = declared edges = crossed edges (%d at %d tenants)\n"
    top.k_guards top.k_tenants;
  fprintf "byte-identity OK: every response matches the oracle and the no-protection baseline\n";
  fprintf "race sink OK: online window mirror saw zero violations at every step\n";
  Golden.emit ?golden ?write_golden ~out ~what:"key-pressure curve"
    ~ok:"key-pressure curve matches" ~recalibrate:"keys" (keys_json_rows rows)

(* --- driver ---------------------------------------------------------------------- *)

open Cmdliner

let all () =
  table2 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig10a ();
  fig10b ();
  ablation ();
  hw ();
  smp ();
  sendfile ();
  keys ();
  analyze ()

(* Every option defaults to None, so the defaults (--out file, --n, ...)
   live in one place: the target's own signature. *)
let optional kind docv name doc =
  Arg.(value & opt (some kind) None & info [ name ] ~docv ~doc)

let file_opt = optional Arg.string "FILE"
let int_opt = optional Arg.int "N"
let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let out = file_opt "out" "Write the results to $(docv)."
let golden = file_opt "golden" "Check the simulated rows against golden $(docv); exit 1 on drift."
let write_golden = file_opt "write-golden" "Write the simulated rows to $(docv) as a new golden file."
let latency = flag "latency" "Append per-edge call-latency percentiles."
let lat_out = file_opt "lat-out" "Write the per-edge latencies to $(docv)."
let started = Unix.gettimeofday ()

let completed term =
  Term.(
    const (fun () ->
        fprintf "\n[bench completed in %.1f s wall clock]\n" (Unix.gettimeofday () -. started))
    $ term)

let run f = Term.(const f $ const ())
let target name doc term = Cmd.v (Cmd.info name ~doc) (completed term)

let golden_target name doc
    (f : ?out:string -> ?golden:string -> ?write_golden:string -> unit -> unit) =
  target name doc
    Term.(
      const (fun out golden write_golden -> f ?out ?golden ?write_golden ())
      $ out $ golden $ write_golden)

let () =
  let n = int_opt "n" "speedtest1 scale factor." in
  let targets =
    [
      target "table2" "Table 2: component inventory." (run table2);
      target "fig5" "Figure 5: NGINX cubicle call graph." (run fig5);
      target "fig6" "Figure 6: SQLite speedtest1 query times under the four configurations."
        Term.(
          const (fun n attrib latency hdr lat_out golden write_golden ->
              fig6 ?n ~attrib ~latency ~hdr ?lat_out ?golden ?write_golden ())
          $ n
          $ flag "attrib" "Append the per-cubicle cycle-attribution tables."
          $ latency
          $ flag "hdr" "Also write an HdrHistogram percentile dump."
          $ lat_out $ golden $ write_golden);
      target "fig7" "Figure 7: NGINX download latency vs transfer size."
        Term.(
          const (fun repeats latency lat_out -> fig7 ?repeats ~latency ?lat_out ())
          $ int_opt "repeats" "Downloads per transfer size."
          $ latency $ lat_out);
      target "fig8" "Figure 8: SQLite cubicle call graph." (run fig8);
      target "fig10a" "Figure 10a: slowdown vs Linux."
        Term.(
          const (fun n latency out golden write_golden ->
              fig10a ?n ~latency ?out ?golden ?write_golden ())
          $ n $ latency $ out $ golden $ write_golden);
      target "fig10b" "Figure 10b: slowdown of 4 vs 3 components."
        Term.(const (fun n latency -> fig10b ?n ~latency ()) $ n $ latency);
      golden_target "ablation" "Window policy, tag and journal-mode ablations." ablation;
      golden_target "hw" "Software-TLB wall clock; simulated cycles golden-checked." hw;
      golden_target "smp" "Multi-core throughput scaling." smp;
      golden_target "sendfile" "Zero-copy vs copy serving." sendfile;
      golden_target "keys" "Key virtualisation under multi-tenant pressure." keys;
      target "analyze" "CubiCheck static and trace-driven isolation analysis."
        Term.(
          const (fun out baseline write_baseline -> analyze ?out ?baseline ?write_baseline ())
          $ out
          $ file_opt "baseline" "Fail on findings above the baseline $(docv)."
          $ file_opt "write-baseline" "Write the findings to $(docv) as a new baseline.");
      target "trace" "Telemetry capture of the Fig. 2 write path (not part of all)."
        Term.(
          const (fun out folded sample stream -> trace ?out ?folded ?sample ~stream ())
          $ out
          $ file_opt "folded" "Write folded stacks to $(docv)."
          $ int_opt "sample" "Keep 1 in $(docv) events."
          $ flag "stream" "Write the JSON through a bus sink during the run.");
      target "all" "Every target except trace (the default)." (run all);
    ]
  in
  let info = Cmd.info "main" ~doc:"Regenerate the paper's tables and figures." in
  (* Cmdliner spells one-letter options -n; keep accepting --n *)
  let argv = Array.map (function "--n" -> "-n" | a -> a) Sys.argv in
  exit (Cmd.eval ~argv (Cmd.group ~default:(completed (run all)) info targets))
