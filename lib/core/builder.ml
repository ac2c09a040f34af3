type component = {
  name : string;
  code_ops : int;
  data_bytes : int;
  heap_pages : int;
  stack_pages : int;
  exports : Monitor.export_spec list;
  init : Monitor.ctx -> unit;
  iface : Iface.t;
  image : Loader.scanned Lazy.t;
      (* synthesised and scanned at the first spawn; the loader only
         reads it and nothing else holds it, so a respawn of the same
         component maps the same bytes without scanning them again *)
}

let image_of ~name ~data_bytes ~code_ops =
  lazy (Loader.scan (Loader.image_of_ops ~name ~data_bytes ~ops:code_ops ()))

type export = { spec : Monitor.export_spec; summary : Iface.fundecl }

let export ?derefs ?writes ?(stack_bytes = 0) sym fn body =
  {
    spec = { Monitor.sym; fn; stack_bytes };
    summary = Iface.fundecl ?derefs ?writes sym body;
  }

let component ?(code_ops = 256) ?(heap_pages = 16) ?(stack_pages = 4)
    ?(init = fun _ -> ()) ?(exports = []) ?(entries = []) name =
  List.iter
    (fun (fd : Iface.fundecl) ->
      if List.exists (fun e -> e.spec.sym = fd.fd_sym) exports then
        invalid_arg
          (Printf.sprintf "Builder.component %s: entry %s is an export" name fd.fd_sym))
    entries;
  let data_bytes = 256 in
  {
    name;
    code_ops;
    data_bytes;
    heap_pages;
    stack_pages;
    exports = List.map (fun e -> e.spec) exports;
    init;
    iface = entries @ List.map (fun e -> e.summary) exports;
    image = image_of ~name ~data_bytes ~code_ops;
  }

let merge name comps =
  let code_ops = List.fold_left (fun acc c -> acc + c.code_ops) 0 comps in
  let data_bytes = List.fold_left (fun acc c -> acc + c.data_bytes) 0 comps in
  {
    name;
    code_ops;
    data_bytes;
    heap_pages = List.fold_left (fun acc c -> acc + c.heap_pages) 0 comps;
    stack_pages = List.fold_left (fun acc c -> max acc c.stack_pages) 1 comps;
    exports = List.concat_map (fun c -> c.exports) comps;
    init = (fun ctx -> List.iter (fun c -> c.init ctx) comps);
    iface = List.concat_map (fun c -> c.iface) comps;
    image = image_of ~name ~data_bytes ~code_ops;
  }

type built = { mon : Monitor.t; trampolines : Trampoline.t }

(* The monitor's records are the one table of live components: the
   builder-loaded ones are those carrying an interface summary. *)
let live built =
  List.filter_map
    (fun cid ->
      Option.map
        (fun iface -> (Monitor.cubicle_name built.mon cid, cid, iface))
        (Monitor.iface built.mon cid))
    (Monitor.live_cids built.mon)

let cid built name = Monitor.lookup_cubicle built.mon name

(* The one link path: load more components into the system, extend the
   trampoline table and run the newcomers' initialisers. [callers] names
   already-live cubicles that will call into the new exports; they
   receive guard entries for the fresh symbols alongside the loaded
   cubicles. [build] is a spawn into an empty system. All or nothing:
   if any step raises, the cubicles this call loaded are unloaded
   again, newest first so their cids are recycled in load order. *)
let spawn ?(callers = []) built comps =
  let loaded = ref [] in
  try
    List.iter
      (fun (c, kind) ->
        let l =
          Loader.load_scanned built.mon (Lazy.force c.image) ~kind ~heap_pages:c.heap_pages
            ~stack_pages:c.stack_pages ~exports:c.exports
        in
        Monitor.set_iface built.mon l.Loader.cid c.iface;
        loaded := (c.name, l.Loader.cid) :: !loaded)
      comps;
    let fresh = List.rev !loaded in
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
        Monitor.run_as built.mon cid (fun () -> c.init (Monitor.ctx_for built.mon cid)))
      comps fresh;
    fresh
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    List.iter (fun (_, cid) -> Monitor.destroy_cubicle built.mon cid) !loaded;
    Printexc.raise_with_backtrace e bt

let build mon comps =
  let built = { mon; trampolines = Trampoline.create mon } in
  ignore (spawn ~callers:(Monitor.live_cids mon) built comps);
  built
