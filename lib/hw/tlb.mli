(** Software TLB for the simulated MMU.

    Real MPK hardware amortises page-table and PKRU permission checks
    through the TLB; this module does the same for the simulator's hot
    loop, caching per-page "access kind → allowed" decisions so
    {!Cpu.read_u8} and friends become one array load plus a generation
    compare instead of a full page walk.

    Invariants the owner ({!Cpu}) must maintain:
    - any per-page mutation (key, perm, presence) invalidates that page;
    - any global permission change (PKRU write, MPK enable toggle,
      exec-follows-access toggle) bumps the generation, invalidating
      every entry at once.

    The TLB affects host wall-clock only. Simulated cycle counts, fault
    counts and wrpkru counts are identical with the TLB on or off. *)

type t

val create : int -> t
(** [create npages] — all entries invalid, TLB enabled. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Disabling forces every access down the slow path (for benchmarking
    the TLB itself); re-enabling flushes. *)

val probe : t -> int -> Fault.access -> hits:int -> bool
(** [probe t page access ~hits] — true iff a live cached decision
    allows [access] on [page], and then counts [hits] hits. Safe on any
    page at or above 0; always false when disabled. The caller counts a
    failed probe with {!record_miss} if it then walks the page. *)

val record_miss : t -> unit
(** No-op while disabled, so a disabled TLB reports zero lookups. *)

val fill : t -> int -> Fault.access -> unit
(** Record that [access] on [page] is allowed under the current
    generation (called from the slow path after a full check passes). *)

val invalidate_page : t -> int -> unit
(** Drop the cached decision for one page (out-of-range pages are
    ignored, matching page-table hook semantics). *)

val flush : t -> unit
(** Invalidate every entry by bumping the permission generation. *)

(** {1 Counters} *)

val hits : t -> int
val misses : t -> int
val flushes : t -> int
val invalidations : t -> int

val hit_rate : t -> float
(** Hits over lookups, in [0,1]; 0 when there were no lookups. *)

val reset_counters : t -> unit
