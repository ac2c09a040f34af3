(** Virtual protection keys multiplexed over the physical MPK tags.

    Lifts MPK's 16-key limit the way libmpk does: each isolated cubicle
    owns a {e virtual} key (numbered from [Pkru.nkeys] up, so the
    virtual and physical namespaces never collide) and the physical
    tags [lo..hi] form an LRU cache of bindings. {!phys_of} is the
    fault-in: it returns the virtual key's current physical tag,
    binding it on demand and evicting the least-recently-used resident
    when the pool is full.

    An eviction walks the victim's pages back to the monitor tag (via
    the monitor-installed {!set_evict_hook}, priced per page), scrubs
    the tag from every core's PKRU still caching it (one wrpkru charge
    and a TLB shootdown per core), and every fault-in charges the
    libmpk-style reassignment cost — all under the [Keymux] attribution
    category, billed to the cubicle whose fault-in triggered the work.

    It is also the monitor's only tag allocator: without
    virtualisation, isolated cubicles and dedicated window tags take
    {e pinned} physical tags ({!pin}), which the LRU never evicts.

    The multiplexer never touches page metadata itself; the owning
    monitor supplies the page walk through the hook. *)

type stats = {
  mutable fault_ins : int;  (** virtual-key bindings established (incl. re-binds) *)
  mutable evictions : int;  (** residents evicted to free a physical tag *)
  mutable retag_pages : int;  (** pages retagged back to the monitor by evictions *)
  mutable key_shootdowns : int;
      (** per-core PKRU scrubs delivered when evicting a tag *)
}

type t

val create : ?lo:int -> ?hi:int -> Cpu.t -> t
(** [create cpu] manages physical tags [lo..hi] (default 1..14 — all
    tags except the monitor's 0 and the shared 15). Raises
    [Invalid_argument] on an empty or out-of-range tag interval. *)

val set_evict_hook : t -> (cid:int -> vkey:int -> phys:int -> int) option -> unit
(** The monitor's page walk: called with the victim's cubicle, virtual
    key and (former) physical tag; must retag the victim's
    still-resident pages back to the monitor tag — charging the
    per-page reassignment cost itself — and return how many pages it
    retagged. *)

val alloc : t -> cid:int -> int
(** [alloc t ~cid] hands out a fresh virtual key owned by cubicle
    [cid], recycling numbers released by {!free}. The key is not yet
    resident; the first {!phys_of} faults it in. *)

val pin : t -> int option
(** [pin t] hands out the lowest free physical tag in [lo..hi] for good:
    the LRU never evicts it and it stays out of {!residents}. [None]
    when every tag is in use; the caller reports the exhaustion. *)

val free : t -> int -> unit
(** [free t key] releases a pinned tag or a virtual key at teardown. A
    virtual key's binding is dropped without the page-walk eviction
    price (the caller scrubs and unmaps the dead holder's pages itself)
    and its number is recycled. Either way the freed physical tag is
    scrubbed from every core's narrowed PKRU still caching it, so the
    slot's next holder cannot be aliased by a stale register.
    Idempotent. *)

val phys_of : t -> int -> int
(** [phys_of t vkey] — the fault-in. Physical keys pass through
    untouched; a resident virtual key is returned (and its LRU
    position refreshed); a non-resident one is bound to a free
    physical tag, evicting the LRU resident if none is free. Raises
    [Invalid_argument] for a virtual key not handed out by {!alloc}. *)

val resident : t -> int -> int option
(** Side-effect-free: the physical tag [vkey] is currently bound to,
    if any. Never faults in, never touches LRU state. *)

val resident_vkey : t -> int -> int option
(** [resident_vkey t phys] — the virtual key resident at physical tag
    [phys], if any. *)

val cid_of_vkey : t -> int -> int option

val residents : t -> (int * int) list
(** All live [(phys, vkey)] bindings, ascending physical tag. *)

val stats : t -> stats
