open Cubicle

module ISet = Set.Make (Int)

(* The replay mirror: a shadow copy of every cubicle's window ACL
   state, reconstructed purely from Window telemetry events (optionally
   seeded from a live monitor when the trace starts mid-run). Accesses
   are then judged against the *intended* ACL state rather than the
   lazily-retagged MPK tags the simulated hardware holds — which is
   exactly where causal revocation (paper §5.6) and missing
   happens-before edges hide. *)

type mrange = { r_ptr : int; r_size : int; mutable r_rw : bool }

type mwin = {
  owner : int;
  mutable ranges : mrange list;
  mutable opened : ISet.t;
  mutable alive : bool;
}

type t = {
  wins : (int * int, mwin) Hashtbl.t;  (* (owner, wid) -> window *)
  phys_cid : (int, int) Hashtbl.t;  (* physical tag -> cubicle bound to it *)
  last_phys : (int, int) Hashtbl.t;  (* evicted cubicle -> tag it lost *)
  races : Races.t;
}

let create ~name_of =
  {
    wins = Hashtbl.create 32;
    phys_cid = Hashtbl.create 16;
    last_phys = Hashtbl.create 16;
    races = Races.create ~name_of;
  }

let seed_from_monitor t mon =
  List.iter
    (fun cid ->
      List.iter
        (fun (w : Window.t) ->
          Hashtbl.replace t.wins (cid, w.Window.wid)
            {
              owner = cid;
              ranges =
                List.map
                  (fun (r : Window.range) ->
                    { r_ptr = r.ptr; r_size = r.size; r_rw = r.perm = Window.RW })
                  w.Window.ranges;
              opened = ISet.of_list w.Window.opened;
              alive = true;
            })
        (Window.live_windows (Monitor.windows_of mon cid)))
    (Monitor.live_cids mon);
  match Monitor.keymux mon with
  | None -> ()
  | Some km ->
      List.iter
        (fun (phys, vkey) ->
            match Hw.Keymux.cid_of_vkey km vkey with
            | Some cid -> Hashtbl.replace t.phys_cid phys cid
            | None -> ())
        (Hw.Keymux.residents km)

let range_touches_page r page =
  r.r_size > 0
  && Hw.Addr.page_of r.r_ptr <= page
  && page <= Hw.Addr.page_of (r.r_ptr + r.r_size - 1)

(* Judge one page access against the mirrored ACLs: [covered] — some
   live window of [owner], open for [cid], has a range touching the
   page; [write_allowed] — some such range is RW. (Enforcement is per
   page, like the monitor's retag granularity.) *)
let judge t ~owner ~page ~cid =
  Hashtbl.fold
    (fun (o, _) w ((cov, wr) as acc) ->
      if (cov && wr) || o <> owner || (not w.alive) || not (ISet.mem cid w.opened) then acc
      else
        List.fold_left
          (fun (cov, wr) r ->
            if range_touches_page r page then (true, wr || r.r_rw) else (cov, wr))
          acc w.ranges)
    t.wins (false, false)

let get_win t owner wid =
  match Hashtbl.find_opt t.wins (owner, wid) with
  | Some w -> w
  | None ->
      let w = { owner; ranges = []; opened = ISet.empty; alive = true } in
      Hashtbl.replace t.wins (owner, wid) w;
      w

let feed ?(core = 0) t (ev : Telemetry.Event.t) =
  match ev with
  (* trampoline crossings and scheduler switches are happens-before
     edges on the core they run on *)
  | Telemetry.Event.Call _ | Telemetry.Event.Return _ | Telemetry.Event.Sched_switch _ ->
      Races.crossing ~core t.races
  | Telemetry.Event.Window { cid; op; wid; peer; ptr; size; rw } -> (
      let w = get_win t cid wid in
      match op with
      | Telemetry.Event.Init -> w.ranges <- []; w.opened <- ISet.empty; w.alive <- true
      | Telemetry.Event.Extend -> ()
      | Telemetry.Event.Add -> w.ranges <- { r_ptr = ptr; r_size = size; r_rw = rw } :: w.ranges
      | Telemetry.Event.Remove ->
          (* remove the first range rooted at ptr, mirroring
             Window.remove_range *)
          let removed = ref false in
          w.ranges <-
            List.filter
              (fun r ->
                if (not !removed) && r.r_ptr = ptr then (removed := true; false) else true)
              w.ranges
      | Telemetry.Event.Downgrade ->
          (* downgrade the first range rooted at ptr, mirroring
             Window.downgrade_range *)
          let rec first = function
            | [] -> ()
            | r :: _ when r.r_ptr = ptr -> r.r_rw <- false
            | _ :: rest -> first rest
          in
          first w.ranges
      | Telemetry.Event.Open | Telemetry.Event.Forward | Telemetry.Event.Open_dedicated ->
          (* a forward is emitted against the owner's window, so the
             mirror treats it as the owner opening for one more peer *)
          if peer >= 0 then w.opened <- ISet.add peer w.opened
      | Telemetry.Event.Close | Telemetry.Event.Close_dedicated ->
          if peer >= 0 then w.opened <- ISet.remove peer w.opened
      | Telemetry.Event.Close_all -> w.opened <- ISet.empty
      | Telemetry.Event.Destroy -> w.alive <- false)
  (* The virtual->physical key plane: residency moves with fault-ins
     and evictions so a recycled tag can be told apart from a live
     grant. A correct eviction retags the victim's pages, so an
     uncovered access that lines up with a recycled binding means the
     scrub was skipped — the key-alias hole, invisible to MPK. *)
  | Telemetry.Event.Key_fault_in { cid; phys; _ } ->
      Hashtbl.replace t.phys_cid phys cid;
      Hashtbl.remove t.last_phys cid
  | Telemetry.Event.Key_evict { cid; phys; _ } ->
      Hashtbl.remove t.phys_cid phys;
      Hashtbl.replace t.last_phys cid phys
  | Telemetry.Event.Window_access { cid; owner; page; access } -> (
      let covered, write_allowed = judge t ~owner ~page ~cid in
      match Hashtbl.find_opt t.last_phys owner with
      | Some p when (not covered) && Hashtbl.find_opt t.phys_cid p = Some cid ->
          Races.key_alias t.races ~cid ~owner ~phys:p
      | _ -> Races.access ~core t.races ~cid ~owner ~page ~access ~covered ~write_allowed)
  | _ -> ()

let run t entries =
  List.iter
    (fun (e : Telemetry.Bus.entry) -> feed ~core:e.Telemetry.Bus.core t e.Telemetry.Bus.ev)
    entries

(* The online race gate: attach with [Bus.set_sink bus (Some
   (Replay.online_sink t))] and the mirror runs concurrently with the
   workload, judging each access as it is emitted — no ring capacity
   limit, no post-hoc replay. Sinks are tracing-gated and never charge
   simulated cycles, so the soak's performance goldens are unaffected. *)
let online_sink t (e : Telemetry.Bus.entry) = feed ~core:e.Telemetry.Bus.core t e.Telemetry.Bus.ev

let findings t = Races.findings t.races

let of_bus bus ~name_of =
  let t = create ~name_of in
  run t (Telemetry.Bus.events bus);
  findings t
