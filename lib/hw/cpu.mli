(** The simulated machine: memory, page table, PKRU, fault delivery and
    cycle accounting.

    Every load/store performed by library OS components and applications
    goes through the checked accessors here, so MPK protection faults
    (and CubicleOS's trap-and-map resolution) are actually exercised.

    The machine models [ncores] simulated cores multiplexed onto one
    host thread: each core owns its own PKRU register and software TLB
    (as the real hardware does) while memory, page table and cycle
    accounting are shared. The SMP scheduler calls {!set_core} before
    every thread slice, swapping the architectural per-core state and
    routing cycle charges and events to that core's counters. With the
    default single core this is exactly the pre-SMP machine, matching
    Unikraft's model of user-level threads multiplexed onto one host
    thread (paper §8).

    A registered {e fault handler} (CubicleOS's monitor) is invoked on a
    protection violation; if it returns [true] the faulting access is
    retried once, otherwise {!Fault.Violation} is raised. *)

type t

type handler = t -> Fault.t -> bool

val create : ?mem_bytes:int -> ?ncores:int -> ?model:Cost.model -> unit -> t
(** [create ()] builds a machine with (default) 64 MiB of memory and one
    core, every page absent, every core's PKRU fully permissive, MPK
    checking off. Raises [Invalid_argument] for [ncores < 1]. *)

val ncores : t -> int

val core_id : t -> int
(** The currently executing core (0 until {!set_core} moves it). *)

val set_core : t -> int -> unit
(** Switch execution to core [c]: subsequent accesses check against that
    core's PKRU and TLB, and cycle charges and events land on its
    counter and bus track: both read the core from the one execution
    context, [Cost.attrib], which this moves.
    Free of simulated cycles — the scheduler models parallelism by
    interleaving slices, and wall-clock per-core time is read back from
    [Cost.core_cycles]. Raises [Invalid_argument] for an out-of-range
    core. *)

val shootdown_count : t -> int
(** TLB invalidations delivered to {e remote} cores: every page-table
    mutation invalidates the page on all cores (the shootdown
    protocol), and each non-local delivery counts here. Always 0 on a
    single-core machine. *)

val mem : t -> Phys_mem.t
val page_table : t -> Page_table.t
val cost : t -> Cost.t
val npages : t -> int

val bus : t -> Telemetry.Bus.t
(** The machine's telemetry bus. Created with the machine and clocked by
    {!Cost.cycles}, so event timestamps are simulated cycles. The CPU
    emits faults, PKRU writes and TLB activity; upper layers (monitor,
    scheduler, pager) emit their own events on the same bus. Tracing is
    off by default and never charges cycles: simulated cycle / fault /
    wrpkru counts are bit-identical with tracing on or off. *)

(** {1 Software TLB} — one per core; amortises the per-access
    permission walk, as real MPK hardware does through the TLB.
    Wall-clock only: simulated cycle counts, fault counts and wrpkru
    counts are identical with the TLB on or off. Invalidation is
    automatic: page-table mutations invalidate per page on {e every}
    core (cross-core shootdown, via {!Page_table.set_hook}); [wrpkru]
    flushes the writing core only; [set_mpk_enabled] and
    [set_exec_follows_access] flush all cores. *)

val tlb : t -> Tlb.t
(** The current core's TLB. *)

val tlbs : t -> Tlb.t list
(** Every core's TLB, core 0 first. *)

val set_tlb_enabled : t -> bool -> unit
(** Applies to every core. Off forces every access down the full-walk
    slow path (used by the benchmark harness to measure the TLB's
    wall-clock effect). *)

val set_handler : t -> handler option -> unit

val mpk_enabled : t -> bool
val set_mpk_enabled : t -> bool -> unit

val set_exec_follows_access : t -> bool -> unit
(** The paper's proposed hardware modification: when on, instruction
    fetch from a page whose key has access-disable set faults even if
    the page-table X bit is set (tag-wide no-execute; §5.5). *)

val pkru : t -> Pkru.t
(** The current core's PKRU register. *)

val wrpkru : t -> Pkru.t -> unit
(** Write the {e current core's} PKRU (the register is core-local, so
    this flushes only that core's TLB). Privileged from the
    simulation's point of view: only trusted CubicleOS code
    (trampolines, monitor) may call this; the loader's binary scan is
    what prevents untrusted components from reaching it. Charges the
    wrpkru cycle cost and counts invocations. *)

val wrpkru_count : t -> int
val fault_count : t -> int

val core_pkru : t -> int -> Pkru.t
(** [core_pkru t c] reads core [c]'s PKRU register without switching to
    it (test/monitor introspection; never charges cycles). Raises
    [Invalid_argument] for an out-of-range core. *)

val scrub_pkru_key : t -> int -> key:int -> unit
(** [scrub_pkru_key t c ~key] denies [key] in core [c]'s PKRU and
    flushes that core's TLB — the shootdown a key-virtualisation
    eviction must deliver to every core still caching the evicted
    physical tag. Charge-free: the key multiplexer prices the wrpkru
    itself so the cost lands on the cubicle that triggered the
    eviction. A remote delivery ([c] not the current core) bumps
    {!shootdown_count}. No-op if the key is already denied there. *)

(** {1 Checked accessors} — used by untrusted component code. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit

val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit
val write_string : t -> int -> string -> unit

val read_into : t -> int -> bytes -> pos:int -> len:int -> unit
(** [read_into t addr buf ~pos ~len]: checked and charged exactly like
    [read_bytes t addr len] (same faults, TLB events and cycles), but
    copies into [buf] at [pos] instead of allocating. A denied access
    raises before [buf] changes; an out-of-bounds host range raises
    [Invalid_argument] before anything is checked or charged. *)

val write_sub : t -> int -> bytes -> pos:int -> len:int -> unit
(** [write_sub t addr buf ~pos ~len]: checked and charged exactly like
    [write_bytes t addr (Bytes.sub buf pos len)], without the copy. A
    denied access raises before simulated memory changes. *)

val check_read : t -> int -> int -> unit
(** [check_read t addr len] checks and charges exactly what
    [read_bytes t addr len] does (same faults, TLB events and cycles)
    and copies nothing: for a trusted reader that then reads the range
    in place. *)

val check_write : t -> int -> int -> unit
(** [check_write t addr len] checks and charges exactly what a
    [len]-byte {!write_bytes} at [addr] does and stores nothing: the
    caller then stores the range in place. A denied access raises, as
    [write_bytes] would. *)

val store_run : t -> int -> bytes -> pos:int -> len:int -> unit
(** [store_run t addr buf ~pos ~len] has the effect of [len] calls of
    [write_u8], storing [buf.[pos + j]] at [addr + j] for ascending [j]:
    the same memory, cycles, attribution, TLB counts, faults and
    events. Each page's first store is a [write_u8]; the page's later
    stores are charged [charge_mem 1] each, counted as the TLB hits the
    loop would count, and copied at once. If a later page is denied,
    the bytes stored before it stay written. With tracing on the run is
    the loop itself, so its events are the loop's. An out-of-bounds
    host range raises [Invalid_argument] before anything is stored. *)

val memcpy : t -> dst:int -> src:int -> len:int -> unit
(** Checked copy within simulated memory. *)

val memset : t -> int -> int -> char -> unit
val fetch : t -> int -> int -> unit
(** [fetch t addr len] models instruction fetch (Exec access). *)

(** {1 Privileged accessors} — monitor/loader/host-bridge only: bypass
    page-level and key checks but still charge memory cycles. *)

val priv_read_bytes : t -> int -> int -> bytes
val priv_write_bytes : t -> int -> bytes -> unit
val priv_write_string : t -> int -> string -> unit
val priv_read_into : t -> int -> bytes -> pos:int -> len:int -> unit
val priv_write_sub : t -> int -> bytes -> pos:int -> len:int -> unit

val priv_write_records : t -> int -> bytes -> size:int -> count:int -> unit
(** [priv_write_records t addr buf ~size ~count] copies the first
    [count] [size]-byte records of [buf] to [addr] in one copy, charged
    as [count] separate [size]-byte {!priv_write_bytes}. *)

val priv_fill : t -> int -> int -> char -> unit
(** [priv_fill t addr len c]: charged like a [len]-byte
    {!priv_write_bytes}, without building the buffer. *)

val priv_blit : t -> dst:int -> src:int -> len:int -> unit

(** {1 Page-table management} — loader/monitor only. *)

val map_page : t -> int -> Page_table.perm -> key:int -> unit
(** Make page present with given permission and key (no pkey cost; used
    at load time). *)

val unmap_page : t -> int -> unit

val set_page_key : t -> int -> int -> unit
(** Runtime key reassignment: charges the pkey-set cost (the expensive
    [pkey_mprotect] path, ~1100 cycles). *)

val page_key : t -> int -> int
