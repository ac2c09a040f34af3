(** The CubicleOS memory monitor: the trusted cubicle that bootstraps
    the system, owns all MPK tags, authorises memory accesses across
    cubicles (lazy trap-and-map, §5.3) and implements the cross-cubicle
    call path used by the trampolines (§5.5).

    The monitor is cubicle 0. Shared cubicles' pages carry a single
    dedicated key that every thread's PKRU allows, so calls into them
    never transit the monitor. Every refusal raises {!Types.Denied}
    with the constructor of the rule it enforces. *)

type t

type ctx = { mon : t; self : Types.cid; caller : Types.cid; cpu : Hw.Cpu.t }
(** The capability handed to component code: its own identity, the
    identity of the cubicle that called into it (trusted information
    recorded by the trampoline — used e.g. by ALLOC to assign pages to
    its caller), and the machine for (checked) memory access. All
    CubicleOS services are reached through {!Api} functions taking a
    [ctx]. *)

type fn = ctx -> int array -> int
(** Component function: arguments and result model machine registers
    (addresses and scalars in simulated memory). *)

type export_spec = { sym : string; fn : fn; stack_bytes : int }
(** [stack_bytes] is the size of by-stack arguments the trampoline must
    copy across per-cubicle stacks (from the signature parsed by the
    builder). *)

val monitor_cid : Types.cid
val shared_key : int

val max_cubicles : int
(** Every cid is below this; a monitor holds at most this many
    cubicles at once. *)

type policy = {
  mapping : [ `Lazy_trap | `Eager_on_open ];
  revocation : [ `Causal | `Eager_revoke ];
}
(** Design-space knobs from the paper's §5.6 discussion, for ablation:
    CubicleOS proper is lazy trap-and-map with causal (lazy)
    revocation. [`Eager_on_open] retags every page of a window when it
    opens; [`Eager_revoke] retags pages back to the owner on close. *)

val default_policy : policy
(** Trap-and-map + causal consistency (the paper's design). *)

val create :
  ?mem_bytes:int ->
  ?ncores:int ->
  ?model:Hw.Cost.model ->
  ?policy:policy ->
  ?virtualise:bool ->
  protection:Types.protection ->
  unit ->
  t
(** Builds the machine (with [ncores] simulated cores, default 1),
    reserves monitor memory, installs the fault handler, and enables
    MPK (and the tag-wide no-execute hardware modification) when
    [protection >= Mpk]. *)

val cpu : t -> Hw.Cpu.t
val cost : t -> Hw.Cost.t

val bus : t -> Telemetry.Bus.t
(** The machine's telemetry bus ({!Hw.Cpu.bus}). The monitor emits
    retag / window / rejected-call / trampoline call-return events on
    it; enable [tracing] to capture them in the ring. *)

val stats : t -> Stats.t
(** Runtime counters — a view over {!bus}; TLB counters read live from
    the machine's {!Hw.Tlb} (nothing to sync, cannot go stale). *)

val meta : t -> Mm.Page_meta.t
val current : t -> Types.cid
(** The executing cubicle: [cur] of the machine's one execution context
    ({!Hw.Cost.attrib}), which the cross-cubicle call path moves. *)

(** {1 Cubicle management (loader/TCB only)} *)

val create_cubicle :
  t -> name:string -> kind:Types.kind -> heap_pages:int -> stack_pages:int -> Types.cid
(** Allocates a cubicle id, an MPK key, a stack and an initial heap.
    Raises [Out_of_keys] when the 15 hardware tags are exhausted,
    unless the monitor was created with [~virtualise:true] (libmpk-style
    tag virtualisation, the paper's §8 suggestion), in which case
    cubicles receive virtual keys mapped to physical ones on demand. *)

val ncubicles : t -> int
(** Number of {e live} cubicles (monitor included). After a
    {!destroy_cubicle} the cid space may have holes, so this is not an
    iteration bound — use {!live_cids}. *)

val live_cids : t -> Types.cid list
(** All live cubicle ids, ascending (always starts with the monitor). *)

val free_page_count : t -> int
(** Free pages in the system allocator — the leak-regression probe:
    spawn/teardown cycles (including failed spawns) must return it to
    its starting value. *)

val keymux : t -> Hw.Keymux.t option
(** The key-virtualisation plane, present iff the monitor was created
    with [~virtualise:true]. Every monitor allocates its tags from one
    {!Hw.Keymux} pool; without virtualisation it hands out pinned tags
    only and is not exposed here. *)

val cubicle_name : t -> Types.cid -> string
val cubicle_kind : t -> Types.cid -> Types.kind
val cubicle_key : t -> Types.cid -> int
(** The cubicle's {e physical} MPK key (with [virtualise], resolving a
    virtual key to a physical one on demand, possibly evicting). *)

val cubicle_raw_key : t -> Types.cid -> int
(** The cubicle's stored key — virtual under [virtualise] — without
    faulting it in or touching LRU state (contrast {!cubicle_key}). *)

val cubicle_heap_bytes : t -> Types.cid -> int
val stack_base : t -> Types.cid -> int
val lookup_cubicle : t -> string -> Types.cid
(** By name; raises [No_cubicle_named] if unknown. *)

val cubicle_exists : t -> string -> bool
val windows_of : t -> Types.cid -> Window.table

val is_live : t -> Types.cid -> bool
(** Whether [cid] names a live cubicle. *)

val guards : t -> Types.cid -> (int * int) list
(** The cubicle's trampoline guard table, kept on its record for
    {!Trampoline}: one (thunk address, guard entry address) pair per
    symbol it may enter through its guard page. Empty for a cid that is
    not live. *)

val set_guards : t -> Types.cid -> (int * int) list -> unit

val iface : t -> Types.cid -> Iface.t option
(** The interface summary {!Builder} loaded the cubicle with; [None]
    for a cubicle the builder did not load. *)

val set_iface : t -> Types.cid -> Iface.t -> unit
val ctx_for : t -> Types.cid -> ctx

val alloc_owned_pages :
  t -> Types.cid -> int -> kind:Mm.Page_meta.kind -> perm:Hw.Page_table.perm -> int
(** Loader/monitor primitive: map [n] fresh pages owned by the cubicle,
    tagged with its key. Returns the base address. *)

val owned_pages : t -> Types.cid -> int list
(** Every page the cubicle owns, ascending, read from its page runs —
    the walk a key eviction makes; costs the cubicle's own page count. *)

val register_exports : t -> Types.cid -> export_spec list -> unit
(** Raises [Duplicate_symbol] (the system has one flat
    symbol namespace, as with Unikraft's exported-symbol lists). *)

val exports_of : t -> Types.cid -> string list
val has_export : t -> string -> bool

(** {1 The cross-cubicle call path} *)

type import
(** A call site's handle on an exported symbol. It is made once per
    call site, resolved by name at its first call on a monitor, and
    cached until that monitor's symbol table changes: every export
    registered or removed makes the monitor's handles re-resolve. A
    handle works on any monitor; one last used on another monitor
    re-resolves too. *)

val import : string -> import
(** [import sym]: a handle on [sym]. It looks nothing up until it is
    called. *)

val imported : t -> import -> bool
(** Whether the handle resolves on this monitor now. A miss is not a
    rejection: nothing is counted or emitted. *)

val call : t -> caller:Types.cid -> import -> int array -> int
(** Resolve the handle (see {!import}) and transfer control:
    - unknown symbol → [Unresolved_symbol] (CFI: only registered entry
      points can be reached), counted and traced as a rejection;
    - shared cubicle → direct call with the caller's privileges;
    - isolated/trusted → trampoline: fixed cost, per-cubicle stack
      switch (+ copying [stack_bytes] of stack arguments), two PKRU
      writes when MPK is on, shadow-stack discipline for returns. Both
      PKRU writes are billed to the cubicle executing at the call: the
      first precedes the switch, the restoring one follows the switch
      back. One unwind runs on every exit, a raise from the callee
      included: it restores the current cubicle, then PKRU, then
      records the Return. *)

val run_as : t -> Types.cid -> (unit -> 'a) -> 'a
(** Enter a cubicle from the trusted boot path: set the current cubicle
    and narrow PKRU to its tags for the duration of [f] — how
    application main loops execute (every memory access inside [f] is
    checked against the cubicle's permissions). Nested cross-cubicle
    calls restore correctly. *)

(** {1 Memory services (reached via trampolines into ALLOC/monitor)} *)

val malloc : t -> Types.cid -> ?align:int -> int -> int
(** From the calling cubicle's own sub-allocator; the heap is grown
    with fresh pages from the system allocator on exhaustion. *)

val free : t -> Types.cid -> int -> unit
val alloc_pages : t -> Types.cid -> int -> kind:Mm.Page_meta.kind -> int
val free_pages : t -> Types.cid -> int -> unit

(** {1 Window management (Table 1; ownership enforced)} *)

val window_init : t -> Types.cid -> klass:Mm.Page_meta.kind -> Types.wid
(** Raises [Descriptors_full] when the array for [klass] is full
    — call {!window_table_extend} first (paper §5.3). *)

val window_table_extend : t -> Types.cid -> klass:Mm.Page_meta.kind -> unit

val window_add :
  t -> Types.cid -> ?perm:Window.perm -> Types.wid -> ptr:int -> size:int -> unit
(** [window_add_ranges] of one range. Checks that every page the range
    touches is owned by the caller and matches the window's data class. [perm] (default [RW]) is the
    grant's permission; an [R] grant lets peers read but makes a
    {e first-touch} write fault a priced rejection. (Under lazy
    trap-and-map a peer that read first holds the page at its own key,
    so its later writes never fault — the online race sink catches
    those.) *)

val window_remove : t -> Types.cid -> Types.wid -> ptr:int -> unit

val window_downgrade : t -> Types.cid -> Types.wid -> ptr:int -> unit
(** Downgrade the grant rooted at [ptr] to read-only in place (emits a
    [Downgrade] window event). Causal semantics: only the ACL narrows;
    stale RW-era mappings persist until the page migrates back. There
    is no upgrade — re-grant with {!window_add} instead, so widenings
    are always visible window ops. *)

val window_open : t -> Types.cid -> Types.wid -> Types.cid -> unit
(** [window_open_many] of one peer. *)

val window_close : t -> Types.cid -> Types.wid -> Types.cid -> unit
val window_close_all : t -> Types.cid -> Types.wid -> unit
val window_destroy : t -> Types.cid -> Types.wid -> unit

val window_add_ranges :
  t -> Types.cid -> ?perm:Window.perm -> Types.wid -> (int * int) list -> unit
(** Batched {!window_add}: one monitor crossing amortised over a list
    of [(ptr, size)] grants, all carrying [perm] (default [RW]). Every
    range is validated before any is applied (atomic batch); one Add
    event is still emitted per range so replay mirrors and counters
    stay exact. Raises [Empty_batch] on an empty list. *)

val window_open_many : t -> Types.cid -> Types.wid -> Types.cid list -> unit
(** Batched {!window_open}: one monitor crossing amortised over a list
    of peers. All peers are validated before any open is applied. *)

val window_forward : t -> Types.cid -> owner:Types.cid -> Types.wid -> Types.cid -> unit
(** Grant-and-forward: the calling cubicle, which must already hold
    window [wid] of [owner] open for itself, extends the grant to a
    third cubicle further down the call chain (sendfile fast path). The
    Window event is emitted against the owner's window. *)

val window_grants :
  ?access:Window.access ->
  t ->
  Types.cid ->
  peer:Types.cid ->
  ptr:int ->
  size:int ->
  bool
(** Explicit byte-exact grant check: [cid] holds a live window open for
    [peer] whose ranges cover the whole [ptr, ptr+size) span (possibly
    stitched from several grants) with permission for [access] (default
    [Read]). The trap-and-map path only ever tests the single faulting
    address, so a too-short grant used to surface as a mid-copy fault;
    this is the full-span predicate the CubiCheck coverage pass and the
    regression tests rely on. *)

val observe_access : t -> addr:int -> len:int -> access:Telemetry.Event.access -> unit
(** Emit {!Telemetry.Event.Window_access} for each page of
    [addr..addr+len) owned by a cubicle other than the current one.
    Tracing-gated, cost-free, and silent for trusted cubicles; called
    by the {!Api} memory helpers so the replay plane can detect write
    races and use-after-close accesses that never fault. *)

(** {1 Introspection for tests and benchmarks} *)

val page_owner : t -> int -> Types.cid option

val grants_held : t -> Types.cid -> Window.t list
(** The peers' windows currently open for the cubicle, read from its
    grant index, in (owner, wid) order. *)

val retag_count : t -> int

val tag_evictions : t -> int
(** Physical-key evictions performed by tag virtualisation
    ([(Keymux.stats km).evictions]; 0 without [virtualise]). *)

val destroy_cubicle : t -> Types.cid -> unit
(** Unload a cubicle (the loader's [dlclose] counterpart): removes its
    exports from the symbol table, closes the grants it holds and
    destroys its own windows, scrubs and releases all its pages, drops
    its guard table and interface summary, and returns its MPK key
    (virtual or physical) and its cid to the pools for reuse by a later
    spawn. Every teardown path ends here. Raises [Destroy_monitor] or
    [Destroy_running] for the monitor or the executing cubicle. *)

(** {1 Window-specific tags (ablation; §5.6/§8)} *)

val window_open_dedicated : t -> Types.cid -> Types.wid -> Types.cid -> unit
(** Grant access through a dedicated MPK tag instead of trap-and-map:
    the window's pages are retagged once to a tag of their own, which
    both owner and grantee enable in PKRU — no faults on access, but
    one of the 16 keys is consumed per window ([Out_of_keys] on
    exhaustion, [Dedicated_virtualised] under [~virtualise:true]).
    Failure-atomic: the peer, the window and the tag are checked or
    allocated before anything changes, so a failing call leaves no
    grant, no tag and no event behind; only the service charge is
    billed. *)

val window_close_dedicated : t -> Types.cid -> Types.wid -> Types.cid -> unit
(** Revoke a dedicated grant; when the last grantee goes, the tag is
    returned to the pool (scrubbed from every core's PKRU) and the pages
    to their owner. An unknown window or peer is denied before anything
    changes or is emitted. *)

val dedicated_keys_in_use : t -> int
