type component = {
  name : string;
  exportsyms : string list;
  code_ops : int;
  data_bytes : int;
  heap_pages : int;
  stack_pages : int;
  exports : Monitor.export_spec list;
  init : Monitor.ctx -> unit;
  iface : Iface.t;
}

let component ?exportsyms ?(code_ops = 256) ?(heap_pages = 16) ?(stack_pages = 4)
    ?(init = fun _ -> ()) ?(exports = []) ?(iface = []) name =
  let exportsyms =
    match exportsyms with
    | Some syms -> syms
    | None -> List.map (fun (e : Monitor.export_spec) -> e.sym) exports
  in
  { name; exportsyms; code_ops; data_bytes = 256; heap_pages; stack_pages; exports; init; iface }

let merge name comps =
  {
    name;
    exportsyms = List.concat_map (fun c -> c.exportsyms) comps;
    code_ops = List.fold_left (fun acc c -> acc + c.code_ops) 0 comps;
    data_bytes = List.fold_left (fun acc c -> acc + c.data_bytes) 0 comps;
    heap_pages = List.fold_left (fun acc c -> acc + c.heap_pages) 0 comps;
    stack_pages = List.fold_left (fun acc c -> max acc c.stack_pages) 1 comps;
    exports = List.concat_map (fun c -> c.exports) comps;
    init = (fun ctx -> List.iter (fun c -> c.init ctx) comps);
    iface = List.concat_map (fun c -> c.iface) comps;
  }

(* The live components by name, each with the order it was loaded in:
   spawn and unload cost one table update, not a copy of every live
   component's entry. *)
type loaded = { seq : int; l_cid : Types.cid; l_iface : Iface.t }
type components = { by_name : (string, loaded) Hashtbl.t; mutable next_seq : int }
type built = { mon : Monitor.t; trampolines : Trampoline.t; components : components }

let add_loaded built name cid iface =
  let cs = built.components in
  Hashtbl.replace cs.by_name name { seq = cs.next_seq; l_cid = cid; l_iface = iface };
  cs.next_seq <- cs.next_seq + 1

let live built =
  Hashtbl.fold (fun name l acc -> (l.seq, (name, l.l_cid, l.l_iface)) :: acc)
    built.components.by_name []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

exception Undeclared_export of string * string

let check_exports c =
  List.iter
    (fun (e : Monitor.export_spec) ->
      if not (List.mem e.sym c.exportsyms) then raise (Undeclared_export (c.name, e.sym)))
    c.exports

let cid built name =
  match Hashtbl.find_opt built.components.by_name name with
  | Some l -> l.l_cid
  | None -> Types.error "builder: unknown component %s" name

(* The one link path: load more components into the system, extend the
   trampoline table and run the newcomers' initialisers. [callers] names
   already-live cubicles that will call into the new exports; they
   receive guard entries for the fresh symbols alongside the loaded
   cubicles. [build] is a spawn into an empty system. *)
let spawn ?(callers = []) built comps =
  List.iter (fun (c, _) -> check_exports c) comps;
  let fresh =
    List.map
      (fun (c, kind) ->
        let img =
          Loader.image_of_ops ~name:c.name ~data_bytes:c.data_bytes ~ops:c.code_ops ()
        in
        let loaded =
          Loader.load built.mon img ~kind ~heap_pages:c.heap_pages
            ~stack_pages:c.stack_pages ~exports:c.exports
        in
        (c.name, loaded.Loader.cid))
      comps
  in
  (* Trampolines cover every public symbol of isolated and trusted
     cubicles; shared-cubicle calls do not transit the monitor. *)
  let syms =
    List.concat_map
      (fun (c, kind) ->
        match kind with
        | Types.Isolated | Types.Trusted ->
            List.map (fun (e : Monitor.export_spec) -> e.sym) c.exports
        | Types.Shared -> [])
      comps
  in
  (* Live callers only need guard entries for the new symbols (they
     already hold the rest); the fresh cubicles must be able to
     guard-call every live export, not just the ones introduced in
     their own batch. *)
  Trampoline.extend built.trampolines ~syms ~cids:callers;
  Trampoline.guard_all built.trampolines ~cids:(List.map snd fresh);
  (* Initialisers run in declaration order, each entered as its own
     cubicle (the loader jumps to the component's init through a
     trampoline) — this is where callback tables get filled in. *)
  List.iter2
    (fun (c, _) (_, cid) ->
      add_loaded built c.name cid c.iface;
      Monitor.run_as built.mon cid (fun () -> c.init (Monitor.ctx_for built.mon cid)))
    comps fresh;
  fresh

let build mon comps =
  let built =
    {
      mon;
      trampolines = Trampoline.create mon;
      components = { by_name = Hashtbl.create 16; next_seq = 0 };
    }
  in
  ignore (spawn ~callers:(Monitor.live_cids mon) built comps);
  built

let unload built names =
  List.iter
    (fun name ->
      let c = cid built name in
      Trampoline.forget_cubicle built.trampolines c;
      Monitor.destroy_cubicle built.mon c;
      Hashtbl.remove built.components.by_name name)
    names
