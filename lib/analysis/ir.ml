open Cubicle

type comp = {
  name : string;
  cid : Types.cid;
  kind : Types.kind;
  exports : string list;
  iface : Iface.t;
}

type program = {
  comps : comp list;
  has_thunk : string -> bool;
  has_guard : Types.cid -> string -> bool;
}

let init_sym = "__init"

let find p name = List.find_opt (fun c -> c.name = name) p.comps

let owner_of p sym =
  List.find_opt (fun c -> List.mem sym c.exports) p.comps

let summary (c : comp) sym = List.find_opt (fun fd -> fd.Iface.fd_sym = sym) c.iface

let init_decl c = summary c init_sym

let of_built (b : Builder.built) =
  let mon = b.Builder.mon in
  let comps =
    List.map
      (fun (name, cid, iface) ->
        {
          name;
          cid;
          kind = Monitor.cubicle_kind mon cid;
          exports = Monitor.exports_of mon cid;
          iface;
        })
      (Builder.live b)
  in
  {
    comps;
    has_thunk = Trampoline.has_thunk b.Builder.trampolines;
    has_guard = Trampoline.has_guard b.Builder.trampolines;
  }

(* Synthetic programs for tests and the qcheck generators: trampoline
   installation is simulated (isolated/trusted exports get thunks, every
   isolated cubicle gets guards), minus explicitly missing entries —
   the injection points for the seeded broken examples. *)
let make ?(missing_thunks = []) ?(missing_guards = []) comps =
  let comps =
    List.mapi
      (fun i (name, kind, exports, iface) -> { name; cid = i + 1; kind; exports; iface })
      comps
  in
  let thunked sym =
    List.exists
      (fun c ->
        (match c.kind with Types.Isolated | Types.Trusted -> true | Types.Shared -> false)
        && List.mem sym c.exports)
      comps
    && not (List.mem sym missing_thunks)
  in
  let guarded cid sym =
    thunked sym
    &&
    match List.find_opt (fun c -> c.cid = cid) comps with
    | Some c -> not (List.mem (c.name, sym) missing_guards)
    | None -> false
  in
  { comps; has_thunk = thunked; has_guard = guarded }
