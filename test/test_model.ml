(* Model-based property test of the window/trap-and-map semantics.

   A reference model of the paper's §5.3/§5.6 rules:
   - each page has an owner and a current tag holder (initially the
     owner);
   - an access by cubicle X to a page owned by Y succeeds iff
     X = Y, or X already holds the tag (causal consistency), or a
     window of Y covering the page is currently open for X;
   - a successful access by X retags the page to X when X = Y or the
     window is open (a pure tag-holder access leaves it in place).

   Random scripts of window operations and accesses are run against
   both the real monitor and the model; allowed/denied decisions and
   final tag holders must agree exactly. *)

open Cubicle

type op =
  | Open_for of int  (* grantee index *)
  | Close_for of int
  | Access of int * int  (* actor index, page index *)
  | Owner_touch of int  (* page index *)

let nactors = 3
let npages = 3

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun g -> Open_for g) (int_bound (nactors - 1));
        map (fun g -> Close_for g) (int_bound (nactors - 1));
        map2 (fun a p -> Access (a, p)) (int_bound (nactors - 1)) (int_bound (npages - 1));
        map (fun p -> Owner_touch p) (int_bound (npages - 1));
      ])

(* the reference model *)
type model = {
  mutable m_open : bool array;  (* window open for actor i *)
  m_tag : int array;  (* page -> current tag holder (-1 = owner) *)
}

let model_access m ~actor ~page =
  (* owner is actor -1 conceptually; actors are grantees *)
  let allowed = m.m_tag.(page) = actor || m.m_open.(actor) in
  if allowed && m.m_open.(actor) then m.m_tag.(page) <- actor;
  (* a cached-tag access without an open window keeps the tag *)
  allowed

let model_owner_touch m ~page = m.m_tag.(page) <- -1

let run_script ops =
  (* real system: OWNER owns [npages] page-aligned buffers in one
     window; ACTOR0..2 are grantees *)
  let mon = Monitor.create ~protection:Types.Full () in
  let owner = Monitor.create_cubicle mon ~name:"OWNER" ~kind:Types.Isolated ~heap_pages:16 ~stack_pages:1 in
  let actors =
    Array.init nactors (fun i ->
        let cid =
          Monitor.create_cubicle mon ~name:(Printf.sprintf "ACTOR%d" i)
            ~kind:Types.Isolated ~heap_pages:4 ~stack_pages:1
        in
        Monitor.register_exports mon cid
          [
            {
              Monitor.sym = Printf.sprintf "actor%d_touch" i;
              fn = (fun ctx a -> Api.write_u8 ctx a.(0) 1; 0);
              stack_bytes = 0;
            };
          ];
        cid)
  in
  Monitor.register_exports mon owner
    [
      {
        Monitor.sym = "owner_touch";
        fn = (fun ctx a -> Api.write_u8 ctx a.(0) 1; 0);
        stack_bytes = 0;
      };
    ];
  let ctx = Monitor.ctx_for mon owner in
  let pages = Array.init npages (fun _ -> Api.malloc_page_aligned ctx 4096) in
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Array.iter (fun p -> Api.window_add ctx wid ~ptr:p ~size:4096) pages;
  let model = { m_open = Array.make nactors false; m_tag = Array.make npages (-1) } in
  let agree = ref true in
  List.iter
    (fun op ->
      match op with
      | Open_for g ->
          Api.window_open ctx wid actors.(g);
          model.m_open.(g) <- true
      | Close_for g ->
          Api.window_close ctx wid actors.(g);
          model.m_open.(g) <- false
      | Owner_touch p ->
          ignore
            (Monitor.call mon ~caller:actors.(0) (Monitor.import "owner_touch")
              [| pages.(p) |]);
          model_owner_touch model ~page:p
      | Access (a, p) ->
          let real_allowed =
            match
              Monitor.call mon ~caller:owner
                (Monitor.import (Printf.sprintf "actor%d_touch" a))
                [| pages.(p) |]
            with
            | _ -> true
            | exception Hw.Fault.Violation _ -> false
          in
          let model_allowed = model_access model ~actor:a ~page:p in
          if real_allowed <> model_allowed then agree := false)
    ops;
  (* final tag holders must agree too *)
  Array.iteri
    (fun p addr ->
      let key = Hw.Cpu.page_key (Monitor.cpu mon) (Hw.Addr.page_of addr) in
      let expect_key =
        if model.m_tag.(p) = -1 then Monitor.cubicle_key mon owner
        else Monitor.cubicle_key mon actors.(model.m_tag.(p))
      in
      if key <> expect_key then agree := false)
    pages;
  !agree

let prop_trap_and_map_matches_model =
  QCheck.Test.make ~count:60 ~name:"monitor: trap-and-map + causal consistency match the model"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) op_gen))
    run_script

let () =
  Alcotest.run "model"
    [ ("semantics", [ QCheck_alcotest.to_alcotest prop_trap_and_map_matches_model ]) ]
