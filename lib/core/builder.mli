(** The trusted component builder (paper §5.2).

    Mirrors how CubicleOS piggy-backs on Unikraft's build: each
    component declares each exported symbol once, with {!export}
    (Unikraft's exported-symbol list, plus a CubiCheck summary);
    the builder compiles each component into a separate image, lets the
    deployer choose isolated vs shared per component, loads everything
    through the loader, generates the cross-cubicle trampolines for
    every exported symbol, and finally runs component initialisers (in
    declaration order) so callback tables are wired through dynamic
    symbols — i.e. through trampolines. *)

type component

type export
(** One public symbol: the [Monitor.export_spec] the loader registers
    and the [Iface.fundecl] CubiCheck reads. *)

val export :
  ?derefs:int list ->
  ?writes:int list ->
  ?stack_bytes:int ->
  string ->
  Monitor.fn ->
  Iface.stmt list ->
  export
(** [export ~derefs ~writes ~stack_bytes sym fn body] declares [sym],
    implemented by [fn], with its interface summary ({!Iface.fundecl}).
    An empty [body] with no [derefs]/[writes] is inert: the export is
    assumed to neither dereference arguments nor perform window/call
    activity (a documented soundness caveat). [stack_bytes] (default 0)
    is the size of its by-stack arguments. *)

val component :
  ?code_ops:int ->
  ?heap_pages:int ->
  ?stack_pages:int ->
  ?init:(Monitor.ctx -> unit) ->
  ?exports:export list ->
  ?entries:Iface.t ->
  string ->
  component
(** [component name] with defaults. [entries] summarises entry points
    that are not exports ([__init], [__main]); raises [Invalid_argument]
    if one names an export of the component. The component's code image
    is synthesised and scanned at its first spawn, and every later
    spawn of the same component loads that image again, unscanned. *)

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

val build : Monitor.t -> (component * Types.kind) list -> built
(** {!spawn} into a fresh trampoline table. Cubicles already live in the
    monitor, which the builder did not load, declare nothing and get no
    guard entry. *)

val cid : built -> string -> Types.cid
(** {!Monitor.lookup_cubicle}: raises [No_cubicle_named] for a name that is
    not live. *)

val spawn : built -> (component * Types.kind) list -> (string * Types.cid) list
(** Load more components into a running system: the cubicle lifecycle's
    birth half, and the one link path. Loads each component, extends
    the trampoline table (thunks for the new symbols), runs initialisers
    in declaration order, and returns the fresh [(name, cid)] pairs.
    Guard entries come only from declared call edges: each loaded
    isolated cubicle gets entries for the symbols its summary calls
    ({!Iface.calls}), and a live cubicle whose summary calls one of the
    new symbols gets its entry when the symbol gets its first thunk. A
    component with an empty interface (no exports, no entries), or whose
    summaries call nothing, declares nothing and holds no entry.
    Component names must not collide with live cubicles
    ([Duplicate_cubicle] from the monitor if they do). All or nothing:
    if a load, the trampoline extension or an initialiser raises, every
    cubicle this call loaded is unloaded again before the exception
    propagates. *)

val declare : built -> Types.cid -> Iface.t -> unit
(** [declare built cid entries] adds [entries] (summaries of entry
    points, as {!component}'s [~entries]) to the live cubicle's
    interface summary and gives it the guard entries their calls need,
    as {!spawn} does for a loaded component: for a cubicle whose calls
    grow at runtime, like a gateway that learns of each tenant as it is
    spawned. It reads the calls of [entries] only, not the summary the
    cubicle declared before. *)
