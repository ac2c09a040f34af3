(* The benchmark's three workloads. Each is a closed loop with one
   client: the next operation is issued only after the last one
   completed. Inputs come from the seed alone; the system under test
   only ever sees the generated inputs.

   An instance exposes one operation at a time. [op] is the timed part;
   [before]/[after] are the workload's own upkeep (opening a fresh
   database, closing it, tenant churn), which counts toward throughput
   and simulated cycles but not toward per-operation latency; [audit i]
   is the oracle work due after op [i], which runs through the simulator
   and is excluded from both clocks. *)

open Cubicle

type outcome = {
  check : unit -> bool;  (** host-side oracle, run outside the timer *)
  tag : int;
      (** latency class: sql 0 light, 1 heavy; http 0 up to 16 KiB, 1 mid,
          2 from 128 KiB; tenant 0 *)
  bytes : int;  (** response bytes delivered *)
}

type t = {
  mon : Monitor.t;
  trampolines : Trampoline.t;
  boot_ns : int;  (** host time of the boot call *)
  driver : string;  (** the cubicle the benchmark's operations run as *)
  upkeep_owner : string;  (** who runs [before]/[after]: the driver, or the builder *)
  before : int -> unit;
  op : int -> outcome;
  after : int -> bool;  (** upkeep after op [i]; true when the live cubicles changed *)
  audit : int -> (unit -> bool) option;
  spawn_ns : Vec.t;
  teardown_ns : Vec.t;
}

type spec = {
  name : string;
  sim_window : int;
      (** operations in the deterministic prefix over which simulated
          cycles are reported, and the length of the traced run *)
  oracle : unit -> unit;  (** one-time, untimed preparation of reference answers *)
  setup : seed:int -> t;  (** boot, populate or spawn, and warm up *)
}

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

let ok_check () = true

let base ~mon ~trampolines ~boot_ns ~driver ~op =
  {
    mon;
    trampolines;
    boot_ns;
    driver;
    upkeep_owner = driver;
    before = ignore;
    op;
    after = (fun _ -> false);
    audit = (fun _ -> None);
    spawn_ns = Vec.create ();
    teardown_ns = Vec.create ();
  }

let warm_up inst ops =
  for i = 0 to ops - 1 do
    inst.before i;
    let o = inst.op i in
    ignore (inst.after i);
    if not (o.check () && match inst.audit i with Some f -> f () | None -> true) then
      failwith "warm-up operation failed its oracle"
  done

(* --- sql_speedtest: the paper's Fig. 6 --------------------------------- *)

(* speedtest1 at n = 150 on the full-isolation file-system stack. One
   operation is one query; every pass of the 31 queries runs on a fresh
   database file, so the heavy group's table (about 260 KiB) outgrows
   the 48-page pager cache on every pass. Speedtest's LCG is fixed: the
   seed does not change this input. *)

let sql_n = 150
let sql_path = "/speed.db"
let queries = Array.of_list Minidb.Speedtest.queries
let nq = Array.length queries

let app_component () = Builder.component ~heap_pages:512 ~stack_pages:4 "APP"

(* Reopen the database: integrity check plus per-table row counts. *)
let audit_db os =
  let db = Minidb.Db.open_db os ~path:sql_path in
  let ok = Minidb.Db.integrity_check db in
  let counts =
    List.sort compare
      (List.map
         (fun name -> (name, Minidb.Db.row_count (Minidb.Db.find_table db name)))
         (Minidb.Db.table_names db))
  in
  Minidb.Db.close db;
  (ok, counts)

(* Row counts of one pass on the host-Linux model at the same n. *)
let sql_reference =
  lazy
    (let sys = Libos.Boot.fs_stack ~extra:[ (app_component (), Types.Isolated) ] () in
     let os = Minidb.Os_iface.linux (Libos.Boot.app_ctx sys "APP") in
     ignore (Minidb.Speedtest.run_all os ~path:sql_path ~n:sql_n ~measure:(fun f -> f ()));
     snd (audit_db os))

let sql_setup ~seed:_ =
  let reference = Lazy.force sql_reference in
  let sys, boot_ns =
    timed (fun () ->
        Libos.Boot.fs_stack ~protection:Types.Full ~mem_bytes:(192 * 1024 * 1024)
          ~extra:[ (app_component (), Types.Isolated) ]
          ())
  in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP")) in
  let st = ref None in
  let state () = match !st with Some s -> s | None -> failwith "no open database" in
  let op i =
    let q = queries.(i mod nq) in
    Minidb.Speedtest.run (state ()) q;
    { check = ok_check; tag = (if q.group = Minidb.Speedtest.Light then 0 else 1); bytes = 0 }
  in
  let last i = i mod nq = nq - 1 in
  let inst =
    {
      (base ~mon:sys.mon ~trampolines:sys.built.trampolines ~boot_ns ~driver:"APP" ~op)
      with
      before =
        (fun i ->
          if i mod nq = 0 then st := Some (Minidb.Speedtest.prepare os ~path:sql_path ~n:sql_n));
      after =
        (fun i ->
          if last i then begin
            Minidb.Speedtest.finish (state ());
            st := None
          end;
          false);
      audit =
        (fun i ->
          if not (last i) then None
          else
            Some
              (fun () ->
                let ok, counts = audit_db os in
                let unlinked = os.unlink sql_path = 0 in
                ok && unlinked && counts = reference));
    }
  in
  warm_up inst nq;
  inst

let sql_speedtest =
  {
    name = "sql_speedtest";
    sim_window = 16 * nq;
    oracle = (fun () -> ignore (Lazy.force sql_reference));
    setup = sql_setup;
  }

(* --- http_static: the paper's Fig. 5/7 serving path ------------------- *)

(* An isolated NGINX on the copy path serves a docroot of 25 files whose
   sizes step by 2^(1/3) from 1 KiB to 256 KiB, each jittered by up to
   5% from the seed; requests pick a file uniformly. An odd file count
   puts the median inside one file's latency cluster. *)

let http_files = 25
let small_max = 16 * 1024
let large_min = 128 * 1024

let http_sizes rng =
  Array.init http_files (fun i ->
      let base = 1024. *. (2. ** (float_of_int i /. 3.)) in
      let jitter = 0.95 +. Random.State.float rng 0.1 in
      max 1024 (min (256 * 1024) (int_of_float (base *. jitter))))

let http_setup ~seed =
  let rng = Random.State.make [| seed |] in
  let sizes = http_sizes rng in
  let bodies =
    Array.map (fun size -> String.init size (fun _ -> Char.chr (32 + Random.State.int rng 95))) sizes
  in
  let paths = Array.init http_files (Printf.sprintf "/f%02d.bin") in
  let sys, boot_ns =
    timed (fun () ->
        Libos.Boot.net_stack ~protection:Types.Full
          ~extra:[ (Httpd.Server.component (), Types.Isolated) ]
          ())
  in
  let siege = Httpd.Siege.make sys (Httpd.Server.start sys) in
  Libos.Boot.populate sys ~as_app:"NGINX" (Array.to_list (Array.combine paths bodies));
  let fetch k =
    let r = Httpd.Siege.fetch siege paths.(k) in
    let check () = r.status = 200 && String.equal r.body bodies.(k) in
    let size = sizes.(k) in
    {
      check;
      tag = (if size <= small_max then 0 else if size >= large_min then 2 else 1);
      bytes = String.length r.body;
    }
  in
  let inst =
    base ~mon:sys.mon ~trampolines:sys.built.trampolines ~boot_ns ~driver:"NGINX" ~op:(fun _ ->
        fetch (Random.State.int rng http_files))
  in
  Array.iteri
    (fun k _ -> if not ((fetch k).check ()) then failwith "warm-up fetch failed its oracle")
    paths;
  inst

let http_static =
  { name = "http_static"; sim_window = 2000; oracle = ignore; setup = http_setup }

(* --- tenant_churn: multi-tenant isolation under key pressure ---------- *)

(* 128 live tenants (257 cubicles over 14 MPK tags) behind one gateway.
   Tenants are picked Zipf-like (s = 1) over a seeded ranking; after
   every 16 requests one seeded-uniform tenant is torn down and
   respawned. *)

let tenants = 128
let churn_every = 16
let zipf_s = 1.0

let zipf_picker rng =
  let rank = Array.init tenants (fun i -> i + 1) in
  for i = tenants - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- x
  done;
  let cdf = Array.make tenants 0. in
  let acc = ref 0. in
  for k = 0 to tenants - 1 do
    acc := !acc +. (1. /. (float_of_int (k + 1) ** zipf_s));
    cdf.(k) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (tenants - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    rank.(!lo)

let tenant_setup ~seed =
  let rng = Random.State.make [| seed |] in
  let pick = zipf_picker rng in
  let sys, boot_ns = timed (fun () -> Httpd.Tenant.boot ~virtualise:true ()) in
  for i = 1 to tenants do
    Httpd.Tenant.spawn sys i
  done;
  let request ~tenant ~off ~len =
    let r = Httpd.Tenant.request sys ~tenant ~off ~len in
    {
      check = (fun () -> String.equal r (Httpd.Tenant.expected ~tenant ~off ~len));
      tag = 0;
      bytes = String.length r;
    }
  in
  let op _ =
    let tenant = pick () in
    let off = Random.State.int rng 256 in
    let len = 64 + Random.State.int rng 448 in
    request ~tenant ~off ~len
  in
  let inst =
    base ~mon:(Httpd.Tenant.mon sys) ~trampolines:(Httpd.Tenant.built sys).trampolines ~boot_ns
      ~driver:"GW" ~op
  in
  let after i =
    (i + 1) mod churn_every = 0
    && begin
         let victim = 1 + Random.State.int rng tenants in
         let (), td = timed (fun () -> Httpd.Tenant.teardown sys victim) in
         let (), sp = timed (fun () -> Httpd.Tenant.spawn sys victim) in
         Vec.push inst.teardown_ns td;
         Vec.push inst.spawn_ns sp;
         true
       end
  in
  for i = 1 to tenants do
    if not ((request ~tenant:i ~off:0 ~len:64).check ()) then
      failwith "warm-up request failed its oracle"
  done;
  { inst with after; upkeep_owner = "builder" }

let tenant_churn =
  { name = "tenant_churn"; sim_window = 4096; oracle = ignore; setup = tenant_setup }

let all = [ sql_speedtest; http_static; tenant_churn ]
