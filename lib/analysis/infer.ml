(* Trace-derived interface summaries.

   The hand-written Iface summaries claim which pointer arguments each
   export dereferences and writes; the static passes trust them. This
   module closes the loop: it watches a traced run ([Call]/[Return]
   frames plus [Window_access] records) and folds the observed accesses
   into per-edge access-mode sets — "while serving export [sym],
   component [C] read/wrote pages owned by component [O]". A summary
   that claims {e less} than a trace observed is stale: the static
   planes were reasoning from a lie, so the cross-check fails the
   analyze gate exactly like a stale golden file.

   Attribution follows the trampoline frames: an access on core [k] by
   cubicle [c] belongs to the innermost open frame on [k] whose callee
   is [c]. Shared calls push no frame — shared code runs with the
   caller's privileges, so its accesses are the caller's (the same rule
   the static accessors fixpoint uses). Accesses outside any frame
   (boot-time init touching staging pages) are folded under the
   synthetic symbol [toplevel_sym] and ignored by the cross-check.

   The same frames say which component called which symbol while
   serving a call. Guard entries come only from the summaries' declared
   calls, and a crossing does not read its guard, so a call the
   caller's summary omits is the soundness hole of an inert export: the
   check reports it, for a component with an empty interface as for any
   other. A crossing outside any frame of its caller (boot-time init, a
   harness driving a component's context) is exempt, like an access
   there. *)

open Cubicle

module IMap = Map.Make (Int)

type mode = { mutable m_read : bool; mutable m_write : bool }

type t = {
  (* per-core stack of open trampoline frames: (callee cid, sym) *)
  stacks : (int, (int * string) list ref) Hashtbl.t;
  (* (actor cid, sym) -> owner cid -> observed modes *)
  obs : (int * string, mode IMap.t ref) Hashtbl.t;
  (* (caller cid, sym) of every traced crossing a cubicle made while
     serving a call *)
  crossings : (int * string, unit) Hashtbl.t;
}

let toplevel_sym = "<toplevel>"

let create () =
  { stacks = Hashtbl.create 4; obs = Hashtbl.create 64; crossings = Hashtbl.create 64 }

let stack_of t core =
  match Hashtbl.find_opt t.stacks core with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.replace t.stacks core s;
      s

let record t ~cid ~sym ~owner ~(access : Telemetry.Event.access) =
  let modes =
    match Hashtbl.find_opt t.obs (cid, sym) with
    | Some m -> m
    | None ->
        let m = ref IMap.empty in
        Hashtbl.replace t.obs (cid, sym) m;
        m
  in
  let m =
    match IMap.find_opt owner !modes with
    | Some m -> m
    | None ->
        let m = { m_read = false; m_write = false } in
        modes := IMap.add owner m !modes;
        m
  in
  match access with
  | Telemetry.Event.Read -> m.m_read <- true
  | Telemetry.Event.Write -> m.m_write <- true
  | Telemetry.Event.Exec -> ()

let feed ?(core = 0) t (ev : Telemetry.Event.t) =
  match ev with
  | Telemetry.Event.Call { caller; callee; sym } ->
      let s = stack_of t core in
      if caller <> callee && List.exists (fun (c, _) -> c = caller) !s then
        Hashtbl.replace t.crossings (caller, sym) ();
      s := (callee, sym) :: !s
  | Telemetry.Event.Return { callee; sym; _ } -> (
      (* pop the innermost matching frame; traces can drop events at
         ring capacity, so an unmatched return is ignored *)
      let s = stack_of t core in
      match !s with
      | (c, y) :: rest when c = callee && y = sym -> s := rest
      | _ -> ())
  | Telemetry.Event.Window_access { cid; owner; access; _ } ->
      let sym =
        match List.find_opt (fun (c, _) -> c = cid) !(stack_of t core) with
        | Some (_, sym) -> sym
        | None -> toplevel_sym
      in
      record t ~cid ~sym ~owner ~access
  | _ -> ()

let run t entries =
  List.iter
    (fun (e : Telemetry.Bus.entry) -> feed ~core:e.Telemetry.Bus.core t e.Telemetry.Bus.ev)
    entries

type observation = {
  o_comp : string;
  o_sym : string;
  o_owner : string;
  o_read : bool;
  o_write : bool;
}

let observations t (p : Ir.program) =
  let name_of cid =
    match List.find_opt (fun (c : Ir.comp) -> c.Ir.cid = cid) p.Ir.comps with
    | Some c -> Some c.Ir.name
    | None -> None
  in
  Hashtbl.fold
    (fun (cid, sym) modes acc ->
      match name_of cid with
      | None -> acc
      | Some comp ->
          IMap.fold
            (fun owner m acc ->
              match name_of owner with
              | None -> acc
              | Some o ->
                  {
                    o_comp = comp;
                    o_sym = sym;
                    o_owner = o;
                    o_read = m.m_read;
                    o_write = m.m_write;
                  }
                  :: acc)
            !modes acc)
    t.obs []
  |> List.sort compare

(* A crossing by a component to a symbol its summary does not declare
   a call to. An empty interface declares nothing, so each of its
   crossings is undeclared; callers that are no component (the
   monitor) are skipped. *)
let undeclared_calls t (p : Ir.program) =
  Hashtbl.fold
    (fun (cid, sym) () acc ->
      match List.find_opt (fun (c : Ir.comp) -> c.Ir.cid = cid) p.Ir.comps with
      | Some c when not (List.mem sym (Iface.calls c.Ir.iface)) ->
          (c.Ir.name, sym) :: acc
      | _ -> acc)
    t.crossings []
  |> List.sort compare
  |> List.map (fun (comp, sym) ->
         Report.make ~pass:"summary" ~severity:Report.Critical ~plane:Report.Dynamic
           ~component:comp
           ~detail:
             (Printf.sprintf
                "trace observed %s calling %s, but no interface summary of %s declares \
                 that call — its guard entries and the static planes omit the edge"
                comp sym comp)
           ~key:(Printf.sprintf "summary:call:%s->%s" comp sym))

let check t (p : Ir.program) =
  let findings = ref (List.rev (undeclared_calls t p)) in
  List.iter
    (fun o ->
      if o.o_sym <> toplevel_sym then
        let comp = Ir.find p o.o_comp in
        let fd = Option.bind comp (fun c -> Ir.summary c o.o_sym) in
        let declared_write =
          match fd with Some fd -> fd.Iface.fd_writes <> [] | None -> false
        in
        let declared_deref =
          match fd with
          | Some fd -> fd.Iface.fd_derefs <> [] || fd.Iface.fd_writes <> []
          | None -> false
        in
        if o.o_write && not declared_write then
          findings :=
            Report.make ~pass:"summary" ~severity:Report.Critical ~plane:Report.Dynamic
              ~component:o.o_comp
              ~detail:
                (Printf.sprintf
                   "trace observed %s.%s writing %s's memory, but the interface summary \
                    declares no written pointer argument — the static planes were \
                    reasoning from a stale summary"
                   o.o_comp o.o_sym o.o_owner)
              ~key:(Printf.sprintf "summary:write:%s.%s" o.o_comp o.o_sym)
            :: !findings
        else if o.o_read && not declared_deref then
          findings :=
            Report.make ~pass:"summary" ~severity:Report.High ~plane:Report.Dynamic
              ~component:o.o_comp
              ~detail:
                (Printf.sprintf
                   "trace observed %s.%s reading %s's memory, but the interface summary \
                    declares no dereferenced pointer argument"
                   o.o_comp o.o_sym o.o_owner)
              ~key:(Printf.sprintf "summary:read:%s.%s" o.o_comp o.o_sym)
            :: !findings)
    (observations t p);
  Report.dedup (List.rev !findings)
