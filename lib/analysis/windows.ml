open Cubicle

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* --- interprocedural accessors --------------------------------------- *)

(* accessors (sym, idx) = the components that may touch the [idx]th
   argument of [sym], transitively: the owner itself when the summary
   declares the access, plus — when the owner forwards the argument as a
   pointer to another call — the accessors of the forwarded position.
   Forwarding to a *shared* component adds the forwarder itself: shared
   code executes with the caller's privileges, so its dereferences are
   the forwarder's for isolation purposes (e.g. RAMFS handing an
   application buffer to the shared libc memcpy).

   The fixpoint is computed twice with different seeds: once for any
   dereference ([fd_derefs] ∪ [fd_writes]) and once for writes only
   ([fd_writes]); for the write flavour a forward into shared code only
   counts when the shared declaration writes that position (memcpy
   writes arg 0 but merely reads arg 1). *)
let accessors_gen ~self_positions ~shared_forward (p : Ir.program) =
  let tbl : (string * int, SSet.t) Hashtbl.t = Hashtbl.create 64 in
  let get k = Option.value ~default:SSet.empty (Hashtbl.find_opt tbl k) in
  let changed = ref true in
  let update k v =
    let cur = get k in
    let v' = SSet.union cur v in
    if not (SSet.equal cur v') then begin
      Hashtbl.replace tbl k v';
      changed := true
    end
  in
  let rec walk_stmts owner sym stmts =
    List.iter
      (fun (s : Iface.stmt) ->
        match s with
        | Iface.Call { sym = s2; ptr_args } ->
            List.iter
              (fun (j, buf, _) ->
                match buf with
                | Iface.Param idx -> (
                    match Ir.owner_of p s2 with
                    | Some o2 when o2.Ir.kind = Types.Shared ->
                        if shared_forward o2 s2 j then
                          update (sym, idx) (SSet.singleton owner)
                    | Some _ -> update (sym, idx) (get (s2, j))
                    | None -> ())
                | Iface.Local _ -> ())
              ptr_args
        | Iface.Branch arms -> List.iter (walk_stmts owner sym) arms
        | Iface.Loop body -> walk_stmts owner sym body
        | _ -> ())
      stmts
  in
  while !changed do
    changed := false;
    List.iter
      (fun (c : Ir.comp) ->
        List.iter
          (fun (fd : Iface.fundecl) ->
            List.iter
              (fun idx -> update (fd.Iface.fd_sym, idx) (SSet.singleton c.Ir.name))
              (self_positions fd);
            walk_stmts c.Ir.name fd.Iface.fd_sym fd.Iface.fd_body)
          c.Ir.iface)
      p.Ir.comps
  done;
  fun sym idx -> get (sym, idx)

let accessors p =
  accessors_gen
    ~self_positions:(fun fd -> fd.Iface.fd_derefs @ fd.Iface.fd_writes)
    ~shared_forward:(fun _ _ _ -> true)
    p

(* The same fixpoint seeded from [fd_writes] only: components that may
   write through the argument. A forward into shared code counts only
   when the shared declaration writes that position (memcpy writes arg
   0, merely reads arg 1). *)
let write_accessors p =
  accessors_gen
    ~self_positions:(fun fd -> fd.Iface.fd_writes)
    ~shared_forward:(fun o2 s2 j ->
      match Ir.summary o2 s2 with
      | Some fd -> List.mem j fd.Iface.fd_writes
      | None -> false)
    p

(* --- must-state over window facts ------------------------------------ *)

type grant = { any_bytes : int; rw_bytes : int }
(* granted bytes for a buffer: through any grant, and through RW grants
   only (0 = no RW grant — writes through the window would be rejected
   or, worse, silently succeed on a read-first-retagged page). *)

type win = {
  grants : grant SMap.t;  (* local buffer name -> granted bytes (max) *)
  opened : SSet.t;  (* peer component names; "*" = any *)
}

type state = win SMap.t

let join_win a b =
  {
    grants =
      SMap.merge
        (fun _ x y ->
          match (x, y) with
          | Some g, Some h ->
              Some
                {
                  any_bytes = min g.any_bytes h.any_bytes;
                  rw_bytes = min g.rw_bytes h.rw_bytes;
                }
          | _ -> None)
        a.grants b.grants;
    opened = SSet.inter a.opened b.opened;
  }

let join (states : state list) =
  match states with
  | [] -> SMap.empty
  | s :: rest ->
      List.fold_left
        (fun acc s' ->
          SMap.merge
            (fun _ x y ->
              match (x, y) with Some a, Some b -> Some (join_win a b) | _ -> None)
            acc s')
        s rest

(* All Local buffer sizes declared anywhere in a component's summaries
   (Alloc statements), for resolving "bytes = 0 → the buffer's size". *)
let alloc_sizes (c : Ir.comp) =
  let tbl = Hashtbl.create 8 in
  let rec walk stmts =
    List.iter
      (fun (s : Iface.stmt) ->
        match s with
        | Iface.Alloc { buf; bytes } -> Hashtbl.replace tbl buf bytes
        | Iface.Branch arms -> List.iter walk arms
        | Iface.Loop body -> walk body
        | _ -> ())
      stmts
  in
  List.iter (fun (fd : Iface.fundecl) -> walk fd.Iface.fd_body) c.Ir.iface;
  tbl

let check (p : Ir.program) =
  let acc = accessors p in
  let wacc = write_accessors p in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let trusted name =
    match Ir.find p name with Some c -> c.Ir.kind = Types.Trusted | None -> false
  in
  List.iter
    (fun (c : Ir.comp) ->
      let sizes = alloc_sizes c in
      (* over-privilege lint state: every RW Local grant site in this
         component, minus the buffers some external accessor actually
         writes through *)
      let rw_grant_sites : (string * string, string) Hashtbl.t = Hashtbl.create 8 in
      let written_bufs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let check_call state here sym ptr_args =
        match Ir.owner_of p sym with
        | None -> ()  (* unresolved: the callgraph pass owns that finding *)
        | Some o2 when o2.Ir.kind = Types.Shared -> ()
        | Some _ ->
            List.iter
              (fun (j, buf, bytes) ->
                match buf with
                | Iface.Param _ -> ()  (* rolled up to this component's callers *)
                | Iface.Local b ->
                    let needed =
                      if bytes > 0 then bytes
                      else Option.value ~default:0 (Hashtbl.find_opt sizes b)
                    in
                    let external_only s =
                      s |> SSet.remove c.Ir.name |> SSet.filter (fun d -> not (trusted d))
                    in
                    let accs = external_only (acc sym j) in
                    let waccs = external_only (wacc sym j) in
                    if not (SSet.is_empty waccs) then Hashtbl.replace written_bufs b ();
                    SSet.iter
                      (fun d ->
                        (* best grant for [b] among windows open for [d] *)
                        let granted = ref (-1) and open_best = ref (-1) in
                        let open_best_rw = ref (-1) in
                        SMap.iter
                          (fun _ w ->
                            match SMap.find_opt b w.grants with
                            | None -> ()
                            | Some g ->
                                granted := max !granted g.any_bytes;
                                if SSet.mem d w.opened || SSet.mem "*" w.opened then begin
                                  open_best := max !open_best g.any_bytes;
                                  if g.rw_bytes > 0 then
                                    open_best_rw := max !open_best_rw g.rw_bytes
                                end)
                          state;
                        if !granted < 0 then
                          add
                            (Report.make ~pass:"coverage" ~severity:Report.High
                               ~plane:Report.Static ~component:c.Ir.name
                               ~detail:
                                 (Printf.sprintf
                                    "%s passes %s to %s (arg %d) with no window grant \
                                     covering it (accessor %s)"
                                    here b sym j d)
                               ~key:
                                 (Printf.sprintf "coverage:no-grant:%s:%s:%d:%s" here sym j d))
                        else if !open_best < 0 then
                          add
                            (Report.make ~pass:"coverage" ~severity:Report.High
                               ~plane:Report.Static ~component:c.Ir.name
                               ~detail:
                                 (Printf.sprintf
                                    "%s passes %s to %s (arg %d) but no covering window \
                                     is open for accessor %s"
                                    here b sym j d)
                               ~key:
                                 (Printf.sprintf "coverage:not-open:%s:%s:%d:%s" here sym j d))
                        else begin
                          if needed > 0 && !open_best < needed then
                            add
                              (Report.make ~pass:"coverage" ~severity:Report.High
                                 ~plane:Report.Static ~component:c.Ir.name
                                 ~detail:
                                   (Printf.sprintf
                                      "%s passes %s to %s (arg %d): grant covers %d of %d \
                                       bytes — %s faults at byte %d"
                                      here b sym j !open_best needed d !open_best)
                                 ~key:
                                   (Printf.sprintf "coverage:partial:%s:%s:%d:%s" here sym j d));
                          (* permission check: a write-accessor needs the
                             span reachable through RW grants; an R-only
                             path is the silent write-through-RO hole
                             (read-first retag means MPK never faults) *)
                          if
                            SSet.mem d waccs
                            && (!open_best_rw < 0
                               || (needed > 0 && !open_best_rw < needed))
                          then
                            add
                              (Report.make ~pass:"coverage" ~severity:Report.Critical
                                 ~plane:Report.Static ~component:c.Ir.name
                                 ~detail:
                                   (Printf.sprintf
                                      "%s passes %s to %s (arg %d) which %s writes, but \
                                       the covering grant is read-only%s — the write \
                                       never faults after a read-first retag"
                                      here b sym j d
                                      (if !open_best_rw < 0 then ""
                                       else
                                         Printf.sprintf " past byte %d of %d" !open_best_rw
                                           needed))
                                 ~key:
                                   (Printf.sprintf "coverage:ro-write:%s:%s:%d:%s" here sym j d))
                        end)
                      accs)
              ptr_args
      in
      let rec exec here (state : state) stmts =
        List.fold_left
          (fun (state : state) (s : Iface.stmt) ->
            match s with
            | Iface.Alloc _ | Iface.Direct_call _ -> state
            | Iface.Call { sym; ptr_args } ->
                check_call state here sym ptr_args;
                state
            | Iface.Window_add { win; buf = Iface.Local b; bytes; rw; _ } ->
                let size =
                  if bytes > 0 then bytes
                  else Option.value ~default:0 (Hashtbl.find_opt sizes b)
                in
                if rw then Hashtbl.replace rw_grant_sites (win, b) here;
                let w =
                  Option.value
                    ~default:{ grants = SMap.empty; opened = SSet.empty }
                    (SMap.find_opt win state)
                in
                let prev =
                  Option.value ~default:{ any_bytes = 0; rw_bytes = 0 }
                    (SMap.find_opt b w.grants)
                in
                let g =
                  {
                    any_bytes = max size prev.any_bytes;
                    rw_bytes = (if rw then max size prev.rw_bytes else prev.rw_bytes);
                  }
                in
                SMap.add win { w with grants = SMap.add b g w.grants } state
            | Iface.Window_add _ -> state  (* Param-rooted grants: not representable *)
            | Iface.Window_remove { win; buf = Iface.Local b } -> (
                match SMap.find_opt win state with
                | None -> state
                | Some w -> SMap.add win { w with grants = SMap.remove b w.grants } state)
            | Iface.Window_remove _ -> state
            | Iface.Window_open { win; peer } | Iface.Window_forward { win; peer } -> (
                (* a forward extends the open set exactly like an open by
                   the owner (the monitor emits it against the owner's
                   window) *)
                match SMap.find_opt win state with
                | None ->
                    SMap.add win
                      { grants = SMap.empty; opened = SSet.singleton peer }
                      state
                | Some w -> SMap.add win { w with opened = SSet.add peer w.opened } state)
            | Iface.Window_close { win; peer } -> (
                match SMap.find_opt win state with
                | None -> state
                | Some w -> SMap.add win { w with opened = SSet.remove peer w.opened } state)
            | Iface.Window_close_all { win } -> (
                match SMap.find_opt win state with
                | None -> state
                | Some w -> SMap.add win { w with opened = SSet.empty } state)
            | Iface.Window_destroy { win } -> SMap.remove win state
            | Iface.Branch arms -> join (List.map (exec here state) arms)
            | Iface.Loop body ->
                (* body may run zero times: facts established inside are
                   checked with the state at loop entry; the exit state
                   keeps only facts true on both paths *)
                join [ state; exec here state body ])
          state stmts
      in
      (* The component's init summary establishes the entry state of
         every export: standing staging windows, registration-time
         opens. *)
      let init_state =
        match Ir.init_decl c with
        | None -> SMap.empty
        | Some fd ->
            exec (Printf.sprintf "%s.%s" c.Ir.name Ir.init_sym) SMap.empty fd.Iface.fd_body
      in
      List.iter
        (fun (fd : Iface.fundecl) ->
          if fd.Iface.fd_sym <> Ir.init_sym then
            ignore
              (exec
                 (Printf.sprintf "%s.%s" c.Ir.name fd.Iface.fd_sym)
                 init_state fd.Iface.fd_body))
        c.Ir.iface;
      (* BULKHEAD-style least-privilege lint: an RW grant whose buffer
         no external component ever writes through should have been
         granted read-only *)
      Hashtbl.iter
        (fun (win, b) here ->
          if not (Hashtbl.mem written_bufs b) then
            add
              (Report.make ~pass:"over-privilege" ~severity:Report.Medium
                 ~plane:Report.Static ~component:c.Ir.name
                 ~detail:
                   (Printf.sprintf
                      "%s grants %s through %s read-write, but no peer ever writes \
                       through it — grant R instead (least privilege)"
                      here b win)
                 ~key:(Printf.sprintf "overpriv:%s:%s/%s" c.Ir.name win b)))
        rw_grant_sites)
    p.Ir.comps;
  Report.dedup (List.rev !findings)
