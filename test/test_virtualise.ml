(* Tests for libmpk-style tag virtualisation (paper §8): more isolated
   cubicles than the 16 hardware keys, with physical keys mapped on
   demand and evicted LRU. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let is_violation f = match f () with
  | _ -> false
  | exception Hw.Fault.Violation _ -> true

(* a system of [n] isolated cubicles, each exporting peek/poke *)
let mk_many n =
  let mon = Monitor.create ~virtualise:true ~protection:Types.Full () in
  let cids =
    List.init n (fun i ->
        let cid =
          Monitor.create_cubicle mon ~name:(Printf.sprintf "C%02d" i) ~kind:Types.Isolated
            ~heap_pages:4 ~stack_pages:1
        in
        Monitor.register_exports mon cid
          [
            {
              Monitor.sym = Printf.sprintf "c%02d_poke" i;
              fn = (fun ctx a -> Api.write_u8 ctx a.(0) (a.(1) land 0xFF); 0);
              stack_bytes = 0;
            };
            {
              Monitor.sym = Printf.sprintf "c%02d_read_own" i;
              fn = (fun ctx a -> Api.read_u8 ctx a.(0));
              stack_bytes = 0;
            };
          ];
        cid)
  in
  (mon, cids)

let test_more_than_16_cubicles_boot () =
  let mon, cids = mk_many 24 in
  check_int "24 cubicles + monitor" 25 (Monitor.ncubicles mon);
  (* every cubicle can run and touch its own heap *)
  List.iteri
    (fun i cid ->
      let ctx = Monitor.ctx_for mon cid in
      let buf = Api.malloc ctx 16 in
      check_int "own access works"
        0
        (Monitor.call mon ~caller:cid (Monitor.import (Printf.sprintf "c%02d_poke" i))
          [| buf; i |]))
    cids

let test_isolation_still_enforced_past_16 () =
  let mon, cids = mk_many 20 in
  let c0 = List.nth cids 0 and c19 = List.nth cids 19 in
  let buf0 = Monitor.malloc mon c0 16 in
  (* cubicle 19 (physical key certainly recycled) cannot touch C00's heap *)
  check_bool "cross access denied" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:c19 (Monitor.import "c19_poke") [| buf0; 1 |]))

let test_evictions_happen () =
  let mon, cids = mk_many 20 in
  (* round-robin through all cubicles: far more working tags than
     physical keys, so evictions must occur *)
  List.iteri
    (fun i cid ->
      let ctx = Monitor.ctx_for mon cid in
      let buf = Api.malloc ctx 8 in
      ignore
        (Monitor.call mon ~caller:cid (Monitor.import (Printf.sprintf "c%02d_poke" i))
          [| buf; 1 |]))
    cids;
  check_bool "evictions occurred" true (Monitor.tag_evictions mon > 0)

let test_data_survives_eviction () =
  let mon, cids = mk_many 20 in
  let c0 = List.nth cids 0 in
  let ctx0 = Monitor.ctx_for mon c0 in
  let buf = Api.malloc ctx0 8 in
  ignore (Monitor.call mon ~caller:c0 (Monitor.import "c00_poke") [| buf; 123 |]);
  (* churn through every other cubicle to force C00's key out *)
  List.iteri
    (fun i cid ->
      if i > 0 then begin
        let ctx = Monitor.ctx_for mon cid in
        let b = Api.malloc ctx 8 in
        ignore
          (Monitor.call mon ~caller:cid (Monitor.import (Printf.sprintf "c%02d_poke" i))
            [| b; i |])
      end)
    cids;
  check_bool "evicted at least once" true (Monitor.tag_evictions mon > 0);
  (* C00 comes back: its data is intact and readable (lazy re-tagging
     through the fault handler) *)
  check_int "data survived eviction" 123
    (Monitor.call mon ~caller:c0 (Monitor.import "c00_read_own") [| buf |])

let test_windows_work_across_virtual_tags () =
  let mon, cids = mk_many 20 in
  let a = List.nth cids 2 and b = List.nth cids 18 in
  let ctx = Monitor.ctx_for mon a in
  let buf = Api.malloc_page_aligned ctx 32 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:32;
  (* closed: denied *)
  check_bool "closed window denied" true
    (is_violation (fun () ->
      Monitor.call mon ~caller:a (Monitor.import "c18_poke") [| buf; 7 |]));
  Api.window_open ctx wid b;
  check_int "open window works" 0
    (Monitor.call mon ~caller:a (Monitor.import "c18_poke") [| buf; 7 |]);
  Monitor.run_as mon a (fun () -> check_int "written" 7 (Api.read_u8 ctx buf))

let test_without_virtualise_still_fails () =
  let mon = Monitor.create ~protection:Types.Full () in
  for i = 1 to 14 do
    ignore
      (Monitor.create_cubicle mon ~name:(Printf.sprintf "K%d" i) ~kind:Types.Isolated
         ~heap_pages:1 ~stack_pages:1)
  done;
  Deny.check "15th fails without virtualise" (Out_of_keys { dedicated = false }) (fun () ->
      Monitor.create_cubicle mon ~name:"K15" ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1)

let test_virtualised_full_stack () =
  (* the whole library OS stack, plus enough extra isolated components
     to exceed the hardware keys, still serves files correctly *)
  let extras =
    List.init 12 (fun i ->
        (Builder.component ~heap_pages:2 ~stack_pages:1 (Printf.sprintf "X%02d" i),
         Types.Isolated))
  in
  let app = Builder.component ~heap_pages:64 ~stack_pages:4 "APP" in
  let sys =
    Libos.Boot.fs_stack ~protection:Types.Full ~virtualise:true
      ~extra:(extras @ [ (app, Types.Isolated) ])
      ()
  in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx sys "APP") in
  Libos.Fileio.write_file fio "/v.txt" "virtualised tags";
  Alcotest.(check string) "roundtrip" "virtualised tags" (Libos.Fileio.read_file fio "/v.txt");
  check_int "19 cubicles incl. monitor" 20 (Monitor.ncubicles sys.Libos.Boot.mon)

let test_dedicated_tags_rejected_under_virtualise () =
  let mon, cids = mk_many 3 in
  let c0 = List.hd cids in
  let ctx = Monitor.ctx_for mon c0 in
  let buf = Api.malloc_page_aligned ctx 32 in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:32;
  Deny.check "dedicated tags rejected" Dedicated_virtualised (fun () ->
      Api.window_open_dedicated ctx wid (List.nth cids 1))

(* A failed spawn must leave the monitor exactly as it was: repeated
   oversized creations (stack pages land, then the heap allocation
   blows up) may not leak pages, cids, names or virtual keys. *)
let test_failed_spawns_leak_nothing () =
  let mon =
    Monitor.create ~virtualise:true ~protection:Types.Full ~mem_bytes:(8 * 1024 * 1024) ()
  in
  ignore
    (Monitor.create_cubicle mon ~name:"OK" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1);
  let free0 = Monitor.free_page_count mon in
  let n0 = Monitor.ncubicles mon in
  for _ = 1 to 10 do
    match
      Monitor.create_cubicle mon ~name:"BIG" ~kind:Types.Isolated ~heap_pages:1_000_000
        ~stack_pages:2
    with
    | _ -> Alcotest.fail "oversized spawn unexpectedly succeeded"
    | exception Mm.Suballoc.Exhausted -> ()
  done;
  check_int "no pages leaked" free0 (Monitor.free_page_count mon);
  check_int "no cubicles leaked" n0 (Monitor.ncubicles mon);
  (* the name is free again and a sane footprint still fits *)
  let cid =
    Monitor.create_cubicle mon ~name:"BIG" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
  in
  let ctx = Monitor.ctx_for mon cid in
  Monitor.run_as mon cid (fun () ->
      let b = Api.malloc ctx 8 in
      Api.write_u8 ctx b 42;
      check_int "respawned cubicle works" 42 (Api.read_u8 ctx b))

(* A batch spawn is all-or-nothing: when a later component fails to
   load, the earlier ones of the same call are unloaded again (pages,
   exports, cid, name, key), so a retry succeeds. *)
let test_failed_batch_spawn_unloads_batch () =
  let mon =
    Monitor.create ~virtualise:true ~protection:Types.Full ~mem_bytes:(8 * 1024 * 1024) ()
  in
  let built =
    Builder.build mon [ (Builder.component ~heap_pages:2 "GW", Types.Isolated) ]
  in
  let gw = Builder.cid built "GW" in
  let a =
    Builder.component ~heap_pages:2
      ~exports:[ Builder.export "a_fn" (fun _ a -> a.(0) + 1) [] ]
      "A"
  in
  let b heap_pages = Builder.component ~heap_pages "B" in
  let free0 = Monitor.free_page_count mon in
  let n0 = Monitor.ncubicles mon in
  (match Builder.spawn built [ (a, Types.Isolated); (b 1_000_000, Types.Isolated) ] with
  | _ -> Alcotest.fail "oversized spawn unexpectedly succeeded"
  | exception Mm.Suballoc.Exhausted -> ());
  check_int "no cubicles left behind" n0 (Monitor.ncubicles mon);
  check_int "no pages leaked" free0 (Monitor.free_page_count mon);
  check_bool "A unloaded" false (Monitor.cubicle_exists mon "A");
  check_bool "a_fn unregistered" false (Monitor.has_export mon "a_fn");
  let fresh = Builder.spawn built [ (a, Types.Isolated); (b 2, Types.Isolated) ] in
  check_int "retry loads both" 2 (List.length fresh);
  check_int "a_fn callable" 42
    (Monitor.run_as mon gw (fun () ->
      Monitor.call mon ~caller:gw (Monitor.import "a_fn") [| 41 |]))

(* Keymux.free at teardown must scrub the freed tag from every core's
   PKRU still caching it: a register narrowed on another core would
   otherwise retain access to whatever cubicle next gets the tag. This
   holds for a virtual key's binding and for a pinned tag alike. *)
let test_teardown_scrubs_core_registers ~virtualise () =
  let mon = Monitor.create ~virtualise ~ncores:2 ~protection:Types.Full () in
  let a =
    Monitor.create_cubicle mon ~name:"A" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
  in
  let phys_a = Monitor.cubicle_key mon a in
  let cpu = Monitor.cpu mon in
  let cost = Monitor.cost mon in
  let keymux_cycles () =
    Telemetry.Attrib.category_total cost.Hw.Cost.attrib Telemetry.Attrib.Keymux
  in
  (* core 1 caches A's physical tag in a narrowed register *)
  Hw.Cpu.set_core cpu 1;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ phys_a; Monitor.shared_key ]);
  Hw.Cpu.set_core cpu 0;
  check_bool "core 1 caches the tag" true
    (Hw.Pkru.can_read (Hw.Cpu.core_pkru cpu 1) phys_a);
  let k0 = keymux_cycles () in
  Monitor.destroy_cubicle mon a;
  check_bool "teardown scrubbed core 1" false
    (Hw.Pkru.can_read (Hw.Cpu.core_pkru cpu 1) phys_a);
  (* the pool bills each shootdown as one wrpkru under Keymux *)
  check_int "one shootdown billed" cost.Hw.Cost.model.Hw.Cost.wrpkru (keymux_cycles () - k0);
  Option.iter
    (fun km ->
      check_int "shootdown counted" 1 (Hw.Keymux.stats km).Hw.Keymux.key_shootdowns)
    (Monitor.keymux mon);
  (* the next spawn gets the freed tag, out of core 1's reach *)
  let b =
    Monitor.create_cubicle mon ~name:"B" ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
  in
  check_int "freed tag recycled" phys_a (Monitor.cubicle_key mon b);
  check_bool "core 1 cannot reach the next holder" false
    (Hw.Pkru.can_read (Hw.Cpu.core_pkru cpu 1) phys_a)

(* One pool for both kinds: pinned tags are handed out lowest first and
   the LRU never evicts them, however hard vkeys compete for the rest. *)
let test_pinned_tags_never_evicted () =
  let km = Hw.Keymux.create (Hw.Cpu.create ~mem_bytes:(16 * 4096) ()) in
  let pinned = List.init 4 (fun _ -> Option.get (Hw.Keymux.pin km)) in
  Alcotest.(check (list int)) "lowest free tags" [ 1; 2; 3; 4 ] pinned;
  let vkeys = List.init 30 (fun cid -> Hw.Keymux.alloc km ~cid) in
  for _ = 1 to 3 do
    List.iter
      (fun v ->
        check_bool "vkey never bound to a pinned tag" false
          (List.mem (Hw.Keymux.phys_of km v) pinned))
      vkeys
  done;
  check_bool "evictions happened" true ((Hw.Keymux.stats km).Hw.Keymux.evictions > 0);
  Hw.Keymux.free km 2;
  Alcotest.(check (option int)) "a freed pinned tag is handed out again" (Some 2)
    (Hw.Keymux.pin km)

(* Returning from a nested call must not re-admit a physical tag that
   was evicted and rebound to a different cubicle while the call ran:
   the restored register is recomputed from the caller's virtual key,
   not written back verbatim. *)
let test_return_does_not_readmit_recycled_tag () =
  let mon, cids = mk_many 20 in
  let km = Option.get (Monitor.keymux mon) in
  let c0 = List.hd cids and c1 = List.nth cids 1 in
  (* c1's churn export drags every other cubicle's key through the
     14-slot pool, guaranteeing c0's binding is evicted and its old
     physical tag rebound to someone else before the call returns *)
  Monitor.register_exports mon c1
    [
      {
        Monitor.sym = "c01_churn";
        fn =
          (fun ctx _ ->
            List.iteri
              (fun i cid ->
                if i >= 2 then begin
                  let b = Monitor.malloc mon cid 8 in
                  ignore
                    (Api.call ctx (Monitor.import (Printf.sprintf "c%02d_poke" i))
                      [| b; i |])
                end)
              cids;
            0);
        stack_bytes = 0;
      };
    ];
  let ctx0 = Monitor.ctx_for mon c0 in
  let cpu = Monitor.cpu mon in
  Monitor.run_as mon c0 (fun () ->
      ignore (Api.call ctx0 (Api.import "c01_churn") [||]);
      check_bool "churn evicted keys" true (Monitor.tag_evictions mon > 0);
      (* back in c0: every pool tag the register admits must be c0's
         own current binding — never a recycled tag now owned by one of
         the churned cubicles *)
      let pkru = Hw.Cpu.pkru cpu in
      for p = 1 to Hw.Pkru.nkeys - 2 do
        if Hw.Pkru.can_read pkru p then begin
          match Hw.Keymux.resident_vkey km p with
          | Some vkey ->
              check_bool
                (Printf.sprintf "tag %d admitted by c0's register belongs to c0" p)
                true
                (Hw.Keymux.cid_of_vkey km vkey = Some c0)
          | None -> Alcotest.failf "c0's register admits unbound tag %d" p
        end
      done)

(* --- qcheck: mapping consistency under random lifecycles ------------------- *)

type sched_op = Spawn of int | Teardown of int | Touch of int

let gen_sched =
  QCheck.Gen.(
    list_size (int_range 30 120)
      (oneof
         [
           map (fun i -> Spawn i) (int_bound 25);
           map (fun i -> Teardown i) (int_bound 25);
           map (fun i -> Touch i) (int_bound 25);
         ]))

let pp_sched ops =
  String.concat ";"
    (List.map
       (function
         | Spawn i -> Printf.sprintf "S%d" i
         | Teardown i -> Printf.sprintf "T%d" i
         | Touch i -> Printf.sprintf "C%d" i)
       ops)

(* Under any spawn/teardown/call schedule the virtual->physical mapping
   must stay consistent with the page tables and every core's PKRU:
   each physical tag is bound to at most one live cubicle, a page
   carrying a pool tag belongs to exactly the cubicle whose virtual key
   owns that tag (evicted cubicles keep no resident tags), and a
   narrowed PKRU register never readmits a tag that is not the current
   binding of some live cubicle. *)
let prop_keymux_consistent =
  QCheck.Test.make ~count:60 ~name:"keymux: mapping consistent under random lifecycle"
    (QCheck.make ~print:pp_sched gen_sched)
    (fun ops ->
      let mon = Monitor.create ~virtualise:true ~ncores:2 ~protection:Types.Full () in
      let km = Option.get (Monitor.keymux mon) in
      let live = Hashtbl.create 16 in
      let bufs = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | Spawn i when not (Hashtbl.mem live i) ->
              let cid =
                Monitor.create_cubicle mon ~name:(Printf.sprintf "S%d" i)
                  ~kind:Types.Isolated ~heap_pages:2 ~stack_pages:1
              in
              Monitor.register_exports mon cid
                [
                  {
                    Monitor.sym = Printf.sprintf "s%d_touch" i;
                    fn =
                      (fun ctx a ->
                        Api.write_u8 ctx a.(0) (i land 0xFF);
                        Api.read_u8 ctx a.(0));
                    stack_bytes = 0;
                  };
                ];
              Hashtbl.replace live i cid;
              Hashtbl.replace bufs i (Monitor.malloc mon cid 8)
          | Spawn _ -> ()
          | Teardown i -> (
              match Hashtbl.find_opt live i with
              | Some cid ->
                  Monitor.destroy_cubicle mon cid;
                  Hashtbl.remove live i;
                  Hashtbl.remove bufs i
              | None -> ())
          | Touch i -> (
              match Hashtbl.find_opt live i with
              | Some cid ->
                  let got =
                    Monitor.call mon ~caller:cid (Monitor.import (Printf.sprintf "s%d_touch" i))
                      [| Hashtbl.find bufs i |]
                  in
                  if got <> i land 0xFF then
                    QCheck.Test.fail_reportf "touch %d read back %d" i got
              | None -> ()))
        ops;
      let cpu = Monitor.cpu mon in
      let pt = Hw.Cpu.page_table cpu in
      let residents = Hw.Keymux.residents km in
      let live_cids = Monitor.live_cids mon in
      (* each pool tag bound at most once, to a live cubicle's own vkey *)
      let phys_tags = List.map fst residents in
      if List.length phys_tags <> List.length (List.sort_uniq compare phys_tags) then
        QCheck.Test.fail_reportf "physical tag bound twice: %s"
          (String.concat "," (List.map string_of_int phys_tags));
      List.iter
        (fun (phys, vkey) ->
          match Hw.Keymux.cid_of_vkey km vkey with
          | Some cid when List.mem cid live_cids ->
              if Monitor.cubicle_raw_key mon cid <> vkey then
                QCheck.Test.fail_reportf "tag %d bound to vkey %d, but cubicle %d owns %d"
                  phys vkey cid
                  (Monitor.cubicle_raw_key mon cid)
          | Some cid -> QCheck.Test.fail_reportf "tag %d bound to dead cubicle %d" phys cid
          | None -> QCheck.Test.fail_reportf "tag %d bound to unallocated vkey %d" phys vkey)
        residents;
      (* page tags never alias: a page carrying a pool tag belongs to
         the cubicle resident at that tag; evicted cubicles' pages are
         all back on the monitor tag *)
      Hashtbl.iter
        (fun _ cid ->
          let vkey = Monitor.cubicle_raw_key mon cid in
          let res = Hw.Keymux.resident km vkey in
          List.iter
            (fun page ->
              let tag = Hw.Page_table.key pt page in
              if tag <> 0 && Some tag <> res then
                QCheck.Test.fail_reportf
                  "cubicle %d (vkey %d, resident %s) owns page %d tagged %d" cid vkey
                  (match res with Some p -> string_of_int p | None -> "no")
                  page tag)
            (Oracle.monitor_pages_owned_by mon cid))
        live;
      (* a narrowed PKRU register only admits currently-bound tags *)
      for core = 0 to Hw.Cpu.ncores cpu - 1 do
        let pkru = Hw.Cpu.core_pkru cpu core in
        if pkru <> Hw.Pkru.all_allow then
          for p = 1 to Hw.Pkru.nkeys - 2 do
            if Hw.Pkru.can_read pkru p && not (List.mem_assoc p residents) then
              QCheck.Test.fail_reportf "core %d PKRU admits unbound tag %d" core p
          done
      done;
      true)

(* --- qcheck: eviction walks exactly the victim's pages --------------------- *)

type page_op =
  | P_spawn of int
  | P_teardown of int
  | P_alloc of int * int
  | P_free of int
  | P_touch of int

let gen_page_script =
  QCheck.Gen.(
    list_size (int_range 30 100)
      (frequency
         [
           (3, map (fun i -> P_spawn i) (int_bound 24));
           (1, map (fun i -> P_teardown i) (int_bound 24));
           (2, map2 (fun i n -> P_alloc (i, n)) (int_bound 24) (int_range 1 4));
           (1, map (fun i -> P_free i) (int_bound 24));
           (4, map (fun i -> P_touch i) (int_bound 24));
         ]))

let pp_page_script ops =
  String.concat ";"
    (List.map
       (function
         | P_spawn i -> Printf.sprintf "S%d" i
         | P_teardown i -> Printf.sprintf "T%d" i
         | P_alloc (i, n) -> Printf.sprintf "A%d/%d" i n
         | P_free i -> Printf.sprintf "F%d" i
         | P_touch i -> Printf.sprintf "C%d" i)
       ops)

(* Random spawn / teardown / alloc_pages / free_pages / call scripts
   over 25 cubicles and 14 tags. After every step, the page runs the
   monitor walks for each cubicle must equal a full scan of the page
   metadata; and every key eviction's Retag events, read off the bus,
   must list exactly the pages the victim held under the evicted tag,
   ascending. The shadow of the page tags is re-read from the page
   table at every step and follows the Retag events within it, so at
   an eviction it holds the tags from just before its first retag (a
   step maps pages only after its fault-in, never before an eviction
   of their owner). A failure is reproducible from the "qcheck random
   seed" line the runner prints (rerun with QCHECK_SEED=<seed>). *)
let prop_eviction_walks_victim_pages =
  QCheck.Test.make ~count:40 ~name:"keymux: eviction walks exactly the victim's pages"
    (QCheck.make ~print:pp_page_script gen_page_script)
    (fun ops ->
      let mon =
        Monitor.create ~virtualise:true ~protection:Types.Full ~mem_bytes:(4 * 1024 * 1024) ()
      in
      let cpu = Monitor.cpu mon in
      let pt = Hw.Cpu.page_table cpu in
      let npages = Hw.Cpu.npages cpu in
      let shadow = Array.make npages 0 in
      let refresh () =
        for p = 0 to npages - 1 do
          shadow.(p) <- Hw.Page_table.key pt p
        done
      in
      let run = ref [] and evictions = ref 0 and failure = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
      let bus = Monitor.bus mon in
      Telemetry.Bus.set_tracing bus true;
      Telemetry.Bus.set_sink bus
        (Some
           (fun (e : Telemetry.Bus.entry) ->
             match e.ev with
             | Telemetry.Event.Retag { page; to_key = 0 (* the monitor tag *) } ->
                 run := page :: !run
             | Telemetry.Event.Key_evict { cid; phys; pages; _ } ->
                 let walked = List.rev !run in
                 let held =
                   List.filter
                     (fun p -> shadow.(p) = phys)
                     (Oracle.monitor_pages_owned_by mon cid)
                 in
                 if walked <> held || pages <> List.length held then
                   fail "eviction of cubicle %d (tag %d) retagged [%s], it held [%s]" cid phys
                     (String.concat "," (List.map string_of_int walked))
                     (String.concat "," (List.map string_of_int held));
                 List.iter (fun p -> shadow.(p) <- 0) walked;
                 incr evictions;
                 run := []
             | Telemetry.Event.Retag { page; to_key } -> shadow.(page) <- to_key
             | _ -> ()));
      let live = Hashtbl.create 16 and bufs = Hashtbl.create 16 and allocs = Hashtbl.create 16 in
      let check_runs step =
        List.iter
          (fun cid ->
            if Monitor.owned_pages mon cid <> Oracle.monitor_pages_owned_by mon cid then
              fail "step %d: cubicle %d's runs disagree with the page metadata" step cid)
          (Monitor.live_cids mon)
      in
      List.iteri
        (fun step op ->
          refresh ();
          (match op with
          | P_spawn i when not (Hashtbl.mem live i) ->
              let cid =
                Monitor.create_cubicle mon ~name:(Printf.sprintf "P%d" i) ~kind:Types.Isolated
                  ~heap_pages:2 ~stack_pages:1
              in
              Monitor.register_exports mon cid
                [
                  {
                    Monitor.sym = Printf.sprintf "p%d_touch" i;
                    fn =
                      (fun ctx a ->
                        Api.write_u8 ctx a.(0) (i land 0xFF);
                        Api.read_u8 ctx a.(0));
                    stack_bytes = 0;
                  };
                ];
              Hashtbl.replace live i cid;
              Hashtbl.replace bufs i (Monitor.malloc mon cid 8);
              Hashtbl.replace allocs i []
          | P_teardown i when Hashtbl.mem live i ->
              Monitor.destroy_cubicle mon (Hashtbl.find live i);
              Hashtbl.remove live i
          | P_alloc (i, n) when Hashtbl.mem live i ->
              let base =
                Monitor.alloc_pages mon (Hashtbl.find live i) n ~kind:Mm.Page_meta.Heap
              in
              Hashtbl.replace allocs i (base :: Hashtbl.find allocs i)
          | P_free i when Hashtbl.mem live i -> (
              match Hashtbl.find allocs i with
              | base :: rest ->
                  Monitor.free_pages mon (Hashtbl.find live i) base;
                  Hashtbl.replace allocs i rest
              | [] -> ())
          | P_touch i when Hashtbl.mem live i ->
              let cid = Hashtbl.find live i in
              List.iter
                (fun addr ->
                  let got =
                    Monitor.call mon ~caller:cid (Monitor.import (Printf.sprintf "p%d_touch" i))
                      [| addr |]
                  in
                  if got <> i land 0xFF then fail "touch %d at 0x%x read back %d" i addr got)
                (Hashtbl.find bufs i :: Hashtbl.find allocs i)
          | P_spawn _ | P_teardown _ | P_alloc _ | P_free _ | P_touch _ -> ());
          if !run <> [] then fail "step %d: retag to the monitor tag outside an eviction" step;
          check_runs step)
        ops;
      match !failure with
      | Some msg -> QCheck.Test.fail_reportf "%s (after %d evictions)" msg !evictions
      | None -> true)

let () =
  Alcotest.run "virtualise"
    [
      ( "tag virtualisation",
        [
          Alcotest.test_case "boot >16" `Quick test_more_than_16_cubicles_boot;
          Alcotest.test_case "isolation holds" `Quick test_isolation_still_enforced_past_16;
          Alcotest.test_case "evictions" `Quick test_evictions_happen;
          Alcotest.test_case "data survives" `Quick test_data_survives_eviction;
          Alcotest.test_case "windows work" `Quick test_windows_work_across_virtual_tags;
          Alcotest.test_case "without flag fails" `Quick test_without_virtualise_still_fails;
          Alcotest.test_case "full stack" `Quick test_virtualised_full_stack;
          Alcotest.test_case "no dedicated tags" `Quick test_dedicated_tags_rejected_under_virtualise;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "failed spawns leak nothing" `Quick
            test_failed_spawns_leak_nothing;
          Alcotest.test_case "failed batch spawn unloads the batch" `Quick
            test_failed_batch_spawn_unloads_batch;
          Alcotest.test_case "teardown scrubs cores" `Quick
            (test_teardown_scrubs_core_registers ~virtualise:true);
          Alcotest.test_case "teardown scrubs cores (pinned)" `Quick
            (test_teardown_scrubs_core_registers ~virtualise:false);
          Alcotest.test_case "pinned tags never evicted" `Quick test_pinned_tags_never_evicted;
          Alcotest.test_case "return recomputes pkru" `Quick
            test_return_does_not_readmit_recycled_tag;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_keymux_consistent; prop_eviction_walks_victim_pages ] );
    ]
