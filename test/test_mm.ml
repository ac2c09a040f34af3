(* Unit and property tests for the memory-management substrate (lib/mm). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Page units -------------------------------------------------------------
   The monitor's page-frame allocator is a Suballoc over page numbers
   with alignment 1: coalescing, exhaustion, bad frees and run sizes in
   those units. *)

let pages ~first_page ~npages = Mm.Suballoc.create ~base:first_page ~size:npages
let alloc_run pa n = Mm.Suballoc.alloc ~align:1 pa n
let free_units pa = Mm.Suballoc.size pa - Mm.Suballoc.used_bytes pa

let test_palloc_alloc_free () =
  let pa = pages ~first_page:10 ~npages:100 in
  let a = alloc_run pa 10 in
  check_int "first run at base" 10 a;
  let b = alloc_run pa 5 in
  check_int "second run after first" 20 b;
  check_int "used" 15 (Mm.Suballoc.used_bytes pa);
  Mm.Suballoc.free pa a;
  check_int "used after free" 5 (Mm.Suballoc.used_bytes pa);
  (* freed space is reused *)
  let c = alloc_run pa 10 in
  check_int "reuse" 10 c

let test_palloc_coalesce () =
  let pa = pages ~first_page:0 ~npages:30 in
  let a = alloc_run pa 10 in
  let b = alloc_run pa 10 in
  let c = alloc_run pa 10 in
  check_int "exhausted" 0 (free_units pa);
  Mm.Suballoc.free pa a;
  Mm.Suballoc.free pa c;
  Mm.Suballoc.free pa b;
  (* all three coalesce back into one run of 30 *)
  let d = alloc_run pa 30 in
  check_int "full run again" 0 d

let test_palloc_oom () =
  let pa = pages ~first_page:0 ~npages:8 in
  Alcotest.check_raises "oom" Mm.Suballoc.Exhausted (fun () -> ignore (alloc_run pa 9))

let test_palloc_bad_free () =
  let pa = pages ~first_page:0 ~npages:8 in
  let a = alloc_run pa 4 in
  Alcotest.check_raises "free inside run"
    (Invalid_argument "Suballoc.free: 0x2 is not a live block") (fun () ->
      Mm.Suballoc.free pa (a + 2))

let test_palloc_run_size () =
  let pa = pages ~first_page:0 ~npages:8 in
  let a = alloc_run pa 3 in
  check_bool "size known" true (Mm.Suballoc.block_size pa a = Some 3);
  check_bool "other unknown" true (Mm.Suballoc.block_size pa (a + 1) = None)

let prop_palloc_no_overlap =
  QCheck.Test.make ~name:"page_alloc: live runs never overlap"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 1 8))
    (fun sizes ->
      let pa = pages ~first_page:0 ~npages:512 in
      let runs = List.map (fun n -> (alloc_run pa n, n)) sizes in
      let rec pairs = function
        | [] -> true
        | (s, n) :: rest ->
            List.for_all (fun (s', n') -> s + n <= s' || s' + n' <= s) rest
            && pairs rest
      in
      pairs runs)

let prop_palloc_free_restores =
  QCheck.Test.make ~name:"page_alloc: freeing everything restores capacity"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_range 1 10))
    (fun sizes ->
      let pa = pages ~first_page:5 ~npages:256 in
      let runs = List.map (fun n -> alloc_run pa n) sizes in
      List.iter (Mm.Suballoc.free pa) runs;
      free_units pa = 256 && alloc_run pa 256 = 5)

(* --- Suballoc ------------------------------------------------------------- *)

let test_suballoc_basics () =
  let sa = Mm.Suballoc.create ~base:0x1000 ~size:4096 in
  let a = Mm.Suballoc.alloc sa 100 in
  check_int "first block at base" 0x1000 a;
  let b = Mm.Suballoc.alloc sa 50 in
  check_bool "blocks disjoint" true (b >= a + 100);
  check_int "used" 150 (Mm.Suballoc.used_bytes sa);
  Mm.Suballoc.free sa a;
  check_int "used after free" 50 (Mm.Suballoc.used_bytes sa);
  check_int "live blocks" 1 (Mm.Suballoc.live_blocks sa)

let test_suballoc_alignment () =
  let sa = Mm.Suballoc.create ~base:0x1008 ~size:65536 in
  let a = Mm.Suballoc.alloc ~align:4096 sa 100 in
  check_int "page aligned" 0 (a land 4095);
  let b = Mm.Suballoc.alloc ~align:64 sa 10 in
  check_int "64 aligned" 0 (b land 63)

let test_suballoc_double_free () =
  let sa = Mm.Suballoc.create ~base:0 ~size:4096 in
  let a = Mm.Suballoc.alloc sa 10 in
  Mm.Suballoc.free sa a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Suballoc.free: 0x0 is not a live block") (fun () ->
      Mm.Suballoc.free sa a)

let test_suballoc_oom_and_reuse () =
  let sa = Mm.Suballoc.create ~base:0 ~size:256 in
  let a = Mm.Suballoc.alloc sa 200 in
  Alcotest.check_raises "oom" Mm.Suballoc.Exhausted (fun () ->
      ignore (Mm.Suballoc.alloc sa 100));
  Mm.Suballoc.free sa a;
  (* coalesced back: a full-size block fits again *)
  ignore (Mm.Suballoc.alloc sa 256)

let prop_suballoc_no_overlap =
  QCheck.Test.make ~name:"suballoc: live blocks never overlap"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 1 100))
    (fun sizes ->
      let sa = Mm.Suballoc.create ~base:0 ~size:65536 in
      let blocks = List.map (fun n -> (Mm.Suballoc.alloc sa n, n)) sizes in
      let rec pairs = function
        | [] -> true
        | (s, n) :: rest ->
            List.for_all (fun (s', n') -> s + n <= s' || s' + n' <= s) rest
            && pairs rest
      in
      pairs blocks)

let prop_suballoc_free_all_coalesces =
  QCheck.Test.make ~name:"suballoc: free-all coalesces to one chunk"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 1 64))
    (fun sizes ->
      let sa = Mm.Suballoc.create ~base:128 ~size:8192 in
      let blocks = List.map (Mm.Suballoc.alloc sa) sizes in
      List.iter (Mm.Suballoc.free sa) blocks;
      Mm.Suballoc.used_bytes sa = 0 && Mm.Suballoc.alloc sa 8192 = 128)

let prop_suballoc_interleaved =
  (* Interleave allocs and frees; invariants must hold throughout. *)
  QCheck.Test.make ~name:"suballoc: interleaved alloc/free keeps accounting"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (pair bool (int_range 1 64)))
    (fun script ->
      let sa = Mm.Suballoc.create ~base:0 ~size:16384 in
      let live = ref [] in
      List.iter
        (fun (do_free, n) ->
          if do_free && !live <> [] then begin
            match !live with
            | (a, sz) :: rest ->
                Mm.Suballoc.free sa a;
                live := rest;
                ignore sz
            | [] -> ()
          end
          else
            match Mm.Suballoc.alloc sa n with
            | a -> live := (a, n) :: !live
            | exception Mm.Suballoc.Exhausted -> ())
        script;
      let expect = List.fold_left (fun acc (_, n) -> acc + n) 0 !live in
      Mm.Suballoc.used_bytes sa = expect
      && Mm.Suballoc.live_blocks sa = List.length !live)

(* Random alloc/free scripts at alignments 1, 8 and 4096 over a range
   with a random, usually unaligned, base, against the bitmap model in
   [Oracle.First_fit]: every allocation must return the model's base,
   or raise [Exhausted] exactly when the model finds none, and the used
   count must agree after every step. A failure is reproducible from
   the "qcheck random seed" line the runner prints (rerun with
   QCHECK_SEED=<seed>). *)
type ff_op = Alloc of int * int (* align, units *) | Free of int (* pick among live *)

let gen_ff_script =
  QCheck.Gen.(
    triple (int_bound 8191)
      (oneof [ int_range 1 64; int_range 1 4096; int_range 4096 40000 ])
      (list_size (int_range 1 80)
         (frequency
            [
              ( 3,
                map2
                  (fun align n -> Alloc (align, n))
                  (oneofl [ 1; 8; 4096 ])
                  (oneof [ int_range 1 16; int_range 1 512; int_range 1 8192 ]) );
              (2, map (fun i -> Free i) (int_bound 1000));
            ])))

let pp_ff_script (base, size, ops) =
  Printf.sprintf "base=%d size=%d [%s]" base size
    (String.concat ";"
       (List.map
          (function Alloc (a, n) -> Printf.sprintf "A%d/%d" a n | Free i -> Printf.sprintf "F%d" i)
          ops))

let prop_suballoc_first_fit_oracle =
  QCheck.Test.make ~count:200 ~name:"suballoc: first fit agrees with a bitmap model"
    (QCheck.make ~print:pp_ff_script gen_ff_script)
    (fun (base, size, ops) ->
      let sa = Mm.Suballoc.create ~base ~size in
      let model = Oracle.First_fit.create ~base ~size in
      let live = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Alloc (align, n) -> (
              let got =
                match Mm.Suballoc.alloc ~align sa n with
                | a -> Some a
                | exception Mm.Suballoc.Exhausted -> None
              in
              let want = Oracle.First_fit.alloc model ~align n in
              if got <> want then
                QCheck.Test.fail_reportf "alloc ~align:%d %d: got %s, model %s" align n
                  (Option.fold ~none:"Exhausted" ~some:string_of_int got)
                  (Option.fold ~none:"Exhausted" ~some:string_of_int want);
              match got with Some a -> live := a :: !live | None -> ())
          | Free i when !live <> [] ->
              let a = List.nth !live (i mod List.length !live) in
              live := List.filter (( <> ) a) !live;
              Mm.Suballoc.free sa a;
              Oracle.First_fit.free model a
          | Free _ -> ());
          Mm.Suballoc.used_bytes sa = Oracle.First_fit.used model)
        ops)

(* --- Page_meta ------------------------------------------------------------ *)

let test_meta_assign_release () =
  let m = Mm.Page_meta.create 16 in
  check_bool "unowned" true (Mm.Page_meta.owner m 3 = None);
  Mm.Page_meta.assign m ~page:3 ~owner:7 ~kind:Mm.Page_meta.Heap;
  check_bool "owner" true (Mm.Page_meta.owner m 3 = Some 7);
  check_bool "kind" true (Mm.Page_meta.kind m 3 = Some Mm.Page_meta.Heap);
  Mm.Page_meta.release m ~page:3;
  check_bool "released" true (Mm.Page_meta.owner m 3 = None)

let test_meta_single_assignment () =
  (* Ownership is set once at allocation time (L4Sec-style safety). *)
  let m = Mm.Page_meta.create 16 in
  Mm.Page_meta.assign m ~page:3 ~owner:1 ~kind:Mm.Page_meta.Code;
  Alcotest.check_raises "reassign denied"
    (Invalid_argument "Page_meta.assign: page 3 already owned by cubicle 1") (fun () ->
      Mm.Page_meta.assign m ~page:3 ~owner:2 ~kind:Mm.Page_meta.Heap)

let test_meta_owned_by () =
  let m = Mm.Page_meta.create 16 in
  Mm.Page_meta.assign m ~page:1 ~owner:5 ~kind:Mm.Page_meta.Stack;
  Mm.Page_meta.assign m ~page:4 ~owner:5 ~kind:Mm.Page_meta.Heap;
  Mm.Page_meta.assign m ~page:2 ~owner:6 ~kind:Mm.Page_meta.Heap;
  Alcotest.(check (list int)) "pages of 5" [ 1; 4 ] (Oracle.pages_owned_by m ~npages:16 5)

let test_meta_kinds () =
  List.iter
    (fun (k, s) -> Alcotest.(check string) "name" s (Mm.Page_meta.kind_to_string k))
    [
      (Mm.Page_meta.Code, "code");
      (Mm.Page_meta.Global, "global");
      (Mm.Page_meta.Stack, "stack");
      (Mm.Page_meta.Heap, "heap");
    ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_palloc_no_overlap;
      prop_palloc_free_restores;
      prop_suballoc_no_overlap;
      prop_suballoc_free_all_coalesces;
      prop_suballoc_interleaved;
      prop_suballoc_first_fit_oracle;
    ]

let () =
  Alcotest.run "mm"
    [
      ( "page_alloc",
        [
          Alcotest.test_case "alloc/free" `Quick test_palloc_alloc_free;
          Alcotest.test_case "coalesce" `Quick test_palloc_coalesce;
          Alcotest.test_case "oom" `Quick test_palloc_oom;
          Alcotest.test_case "bad free" `Quick test_palloc_bad_free;
          Alcotest.test_case "run size" `Quick test_palloc_run_size;
        ] );
      ( "suballoc",
        [
          Alcotest.test_case "basics" `Quick test_suballoc_basics;
          Alcotest.test_case "alignment" `Quick test_suballoc_alignment;
          Alcotest.test_case "double free" `Quick test_suballoc_double_free;
          Alcotest.test_case "oom and reuse" `Quick test_suballoc_oom_and_reuse;
        ] );
      ( "page_meta",
        [
          Alcotest.test_case "assign/release" `Quick test_meta_assign_release;
          Alcotest.test_case "single assignment" `Quick test_meta_single_assignment;
          Alcotest.test_case "owned_by" `Quick test_meta_owned_by;
          Alcotest.test_case "kind names" `Quick test_meta_kinds;
        ] );
      ("properties", qsuite);
    ]
