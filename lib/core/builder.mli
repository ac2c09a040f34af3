(** The trusted component builder (paper §5.2).

    Mirrors how CubicleOS piggy-backs on Unikraft's build: each
    component declares its exported symbols (the [exportsyms.uk] list);
    the builder compiles each component into a separate image, lets the
    deployer choose isolated vs shared per component, loads everything
    through the loader, generates the cross-cubicle trampolines for
    every exported symbol, and finally runs component initialisers (in
    declaration order) so callback tables are wired through dynamic
    symbols — i.e. through trampolines. *)

type component = {
  name : string;
  exportsyms : string list;
      (** public symbols; exports not listed here are rejected *)
  code_ops : int;  (** size of the synthesized code image, in instructions *)
  data_bytes : int;  (** size of the data segment: 256 per linked component *)
  heap_pages : int;
  stack_pages : int;
  exports : Monitor.export_spec list;
  init : Monitor.ctx -> unit;
  iface : Iface.t;
      (** CubiCheck interface summary for the component's exports (may
          be empty: exports are then assumed side-effect-free for
          isolation purposes — a documented soundness caveat). *)
}

val component :
  ?exportsyms:string list ->
  ?code_ops:int ->
  ?heap_pages:int ->
  ?stack_pages:int ->
  ?init:(Monitor.ctx -> unit) ->
  ?exports:Monitor.export_spec list ->
  ?iface:Iface.t ->
  string ->
  component
(** [component name] with defaults; [exportsyms] defaults to the export
    list's symbols. *)

val merge : string -> component list -> component
(** [merge name comps] links several components into a single cubicle
    (the paper's Figure 9a deployments, e.g. CORE+RAMFS). Their exports
    keep their symbols; calls between them become ordinary intra-cubicle
    calls with no trampoline cost. *)

type built = { mon : Monitor.t; trampolines : Trampoline.t }

val live : built -> (string * Types.cid * Iface.t) list
(** The live builder-loaded components — name, cubicle, interface
    summary, read off the monitor's cubicle records — in cid order. That
    is load order until a teardown frees a cid for reuse. The input to
    [Analysis.Ir.of_built]. *)

exception Undeclared_export of string * string
(** (component, symbol): an export not listed in exportsyms. *)

val build : Monitor.t -> (component * Types.kind) list -> built
(** {!spawn} into an empty system: every cubicle already live in the
    monitor is a caller. *)

val cid : built -> string -> Types.cid
(** {!Monitor.lookup_cubicle}: raises {!Types.Error} for a name that is
    not live. *)

val spawn :
  ?callers:Types.cid list ->
  built ->
  (component * Types.kind) list ->
  (string * Types.cid) list
(** Load more components into a running system: the cubicle lifecycle's
    birth half, and the one link path. Checks exports, loads each
    component, extends the trampoline table (thunks for the new
    symbols; guard entries in each loaded isolated cubicle for {e every}
    live export, and in each cubicle of [callers] for the new symbols),
    runs initialisers in declaration order, and returns the fresh
    [(name, cid)] pairs. Component names must not collide with live
    cubicles ({!Types.Error} from the monitor if they do). All or
    nothing: if a load, the trampoline extension or an initialiser
    raises, every cubicle this call loaded is unloaded again before the
    exception propagates. *)

val unload : built -> string list -> unit
(** Tear the named components down: {!Monitor.destroy_cubicle} each
    (exports unregistered, pages scrubbed and released, guard table and
    interface summary dropped, key and cid recycled). The names must not
    be executing at the time of the call. *)
