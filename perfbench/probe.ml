(* Machine-speed probe. On a shared cloud host the machine's speed
   drifts: on a 2-vCPU 2.0 GHz Xeon VM the raw per-operation figures
   moved by up to a third over minutes, far more than the regressions
   the benchmark must catch, and mostly through the shared cache and
   memory (a loop confined to the core's own cache did not track it).
   A fixed loop of read-modify-writes at random offsets of a 16 MiB
   buffer, beyond the core's own 2 MiB cache (no allocation, so the GC
   state does not touch it), is timed every 100 ms of the measured
   phase, and the per-operation host figures (ops_per_s, host_us_mean,
   host_us_p99) are scaled towards the speed at which the loop takes
   [ref_ns] (see [sensitivity]). setup_s is not scaled: a setup is too short to probe
   around. The figures as measured are kept in the results file. *)

let size = 16 * 1024 * 1024
let buf = Bytes.make size '\000'
let iterations = 100_000

(* The timed pass's duration at the reference speed: its typical time
   inside this benchmark on a 2-vCPU 2.0 GHz Xeon VM with a quiet host. *)
let ref_ns = 1_000_000.

let pass () =
  let x = ref 12345 in
  for _ = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land (size - 1) in
    let b = Char.code (Bytes.unsafe_get buf k) in
    Bytes.unsafe_set buf k (Char.unsafe_chr ((b + !x) land 255))
  done

(* An untimed pass first brings the loop's lines back into the cache,
   so the timed pass does not depend on how much of them the measured
   work evicted: it sees the machine, not the workload's footprint. *)
let run () =
  pass ();
  let t0 = Clock.now_ns () in
  pass ();
  Clock.now_ns () - t0

(* The first passes fault the buffer in and fill the caches. *)
let warm_up () =
  for _ = 1 to 8 do
    ignore (run ())
  done

(* How far the workloads' host time moves when the probe's does. Over
   three sets of ten runs per workload on the VM above, the slope of log
   throughput on log probe speed, window by window, was 0.45 to 1.03,
   with a median of 0.76. The probe's loop lives in the shared cache,
   which neighbours on the host disturb more than they disturb the
   workloads, so scaling by the full probe speed over-corrected: one set
   of sql_speedtest runs spread wider scaled than as measured. *)
let sensitivity = 0.75

(* The factor that scales host time measured at the current speed to
   the reference speed, given probe times taken around the measurement. *)
let speed probes = (ref_ns /. Vec.median_float probes) ** sensitivity
