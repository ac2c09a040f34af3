(* Virtual protection keys multiplexed over the physical MPK tags.

   MPK gives the machine 16 keys; CubicleOS reserves one for the
   monitor (0) and one for shared cubicles (15), capping the system at
   14 isolated cubicles. The multiplexer lifts the cap libmpk-style:
   every isolated cubicle owns a *virtual* key (numbered from
   [Pkru.nkeys] so the two namespaces never collide) and the physical
   tags [lo..hi] become an LRU cache of key *bindings*. A cubicle's
   first access after losing its binding faults, the monitor's
   [pkru_for]/fault path calls {!phys_of}, and the binding is
   re-established — evicting the least-recently-used resident if the
   pool is full.

   Pricing: every fault-in charges [model.key_reassign] (libmpk's
   pkey_mprotect-based reassignment, the >=1100-cycle figure the paper
   cites). An eviction additionally walks the victim's pages (the
   monitor-installed hook retags them back to the monitor tag, charging
   [pkey_set] per page) and scrubs the evicted tag from every core's
   PKRU that still caches it — one [wrpkru] charge plus a TLB shootdown
   per core. Everything lands under the [Keymux] attribution category,
   billed to the cubicle whose fault-in triggered the eviction.

   The same pool hands out {e pinned} tags: physical tags given to one
   holder for good (a cubicle's key without virtualisation, a dedicated
   window tag), which the LRU never evicts. Freeing either kind scrubs
   the tag from every core, so no register outlives its grant. *)

type stats = {
  mutable fault_ins : int;
  mutable evictions : int;
  mutable retag_pages : int;
  mutable key_shootdowns : int;
}

type t = {
  cpu : Cpu.t;
  lo : int;
  hi : int;
  owner : int array;  (* phys tag -> resident vkey, [free], or [pinned] *)
  last_used : int array;  (* phys tag -> LRU tick (ticks are unique) *)
  mutable binding : int array;  (* vkey - nkeys -> phys; [none] unless resident *)
  mutable vkey_cid : int array;  (* vkey - nkeys -> owner cid; [none] if free *)
  mutable next_vkey : int;
  mutable free_vkeys : int list;
  mutable tick : int;
  mutable evict_hook : (cid:int -> vkey:int -> phys:int -> int) option;
  stats : stats;
}

let is_virtual k = k >= Pkru.nkeys
let free_tag = -1
let pinned = -2
let none = -1

let create ?(lo = 1) ?(hi = Pkru.nkeys - 2) cpu =
  if lo < 0 || hi >= Pkru.nkeys || lo > hi then invalid_arg "Keymux.create: bad tag range";
  {
    cpu;
    lo;
    hi;
    owner = Array.make Pkru.nkeys free_tag;
    last_used = Array.make Pkru.nkeys 0;
    binding = Array.make 64 none;
    vkey_cid = Array.make 64 none;
    next_vkey = Pkru.nkeys;
    free_vkeys = [];
    tick = 0;
    evict_hook = None;
    stats = { fault_ins = 0; evictions = 0; retag_pages = 0; key_shootdowns = 0 };
  }

let set_evict_hook t h = t.evict_hook <- h
let stats t = t.stats

(* The tables are indexed by [vkey - nkeys]; vkeys are handed out
   densely from [nkeys] and recycled, so they stay as long as the most
   virtual keys ever allocated at once. *)
let slot_of vkey = vkey - Pkru.nkeys

let grow a n =
  let g = Array.make (max n (2 * Array.length a)) none in
  Array.blit a 0 g 0 (Array.length a);
  g

(* [a.(slot_of vkey)], [none] for a key outside the table. *)
let get a vkey =
  let i = slot_of vkey in
  if i >= 0 && i < Array.length a then Array.unsafe_get a i else none

let alloc t ~cid =
  let vkey =
    match t.free_vkeys with
    | v :: rest ->
        t.free_vkeys <- rest;
        v
    | [] ->
        let v = t.next_vkey in
        t.next_vkey <- v + 1;
        v
  in
  let i = slot_of vkey in
  if i >= Array.length t.vkey_cid then begin
    t.vkey_cid <- grow t.vkey_cid (i + 1);
    t.binding <- grow t.binding (i + 1)
  end;
  t.vkey_cid.(i) <- cid;
  vkey

let opt v = if v = none then None else Some v
let resident t vkey = opt (get t.binding vkey)
let is_pinned t k = k >= t.lo && k <= t.hi && t.owner.(k) = pinned
let resident_vkey t phys = if t.owner.(phys) >= 0 then Some t.owner.(phys) else None
let cid_of_vkey t vkey = opt (get t.vkey_cid vkey)

let residents t =
  let acc = ref [] in
  for k = t.hi downto t.lo do
    if t.owner.(k) >= 0 then acc := (k, t.owner.(k)) :: !acc
  done;
  !acc

let[@inline] touch t phys =
  t.tick <- t.tick + 1;
  t.last_used.(phys) <- t.tick

(* Event sites test [tracing] first, so an untraced run never builds
   the event. *)
let[@inline] tracing t = (Cpu.bus t.cpu).Telemetry.Bus.tracing
let emit t ev = Telemetry.Bus.emit (Cpu.bus t.cpu) ev

(* Scrub an evicted tag from every core still caching it: real MPK
   would deliver an IPI so each core rewrites its PKRU; we price one
   wrpkru per affected core and flush its TLB. A fully-permissive
   register is left alone — it belongs to trusted context (monitor
   boot, host-side test drivers), which retains universal access by
   definition; only narrowed registers hold a specific stale grant of
   the evicted tag that must be revoked before the tag is rebound. *)
let scrub_cores t ~phys =
  let cost = Cpu.cost t.cpu in
  for c = 0 to Cpu.ncores t.cpu - 1 do
    let pkru = Cpu.core_pkru t.cpu c in
    if pkru <> Pkru.all_allow && Pkru.can_read pkru phys then begin
      Cost.charge_cat cost Telemetry.Attrib.Keymux cost.Cost.model.Cost.wrpkru;
      Cpu.scrub_pkru_key t.cpu c ~key:phys;
      t.stats.key_shootdowns <- t.stats.key_shootdowns + 1
    end
  done

let free_slot t =
  let found = ref (-1) in
  for k = t.hi downto t.lo do
    if t.owner.(k) = free_tag then found := k
  done;
  !found

let pin t =
  match free_slot t with
  | -1 -> None
  | k ->
      t.owner.(k) <- pinned;
      Some k

let release_slot t phys =
  t.owner.(phys) <- free_tag;
  t.last_used.(phys) <- 0;
  scrub_cores t ~phys

(* Return a pinned tag, or drop a vkey's binding without the page-walk
   part of the eviction price: the caller is destroying the holder and
   scrubs/unmaps its pages itself, so there is nothing left to retag.
   The per-core PKRU scrub is NOT skippable, though — a core may still
   cache the tag from an earlier run of the dead holder, and the freed
   slot is about to be handed out again; without the scrub that
   register would retain access to whatever gets the slot next (the
   aliasing [scrub_cores] exists to prevent). The physical slot becomes
   free and a vkey number is recycled for the next [alloc]. *)
let free t key =
  if is_pinned t key then release_slot t key;
  let phys = get t.binding key in
  if phys <> none then begin
    t.binding.(slot_of key) <- none;
    release_slot t phys
  end;
  if get t.vkey_cid key <> none then begin
    t.vkey_cid.(slot_of key) <- none;
    t.free_vkeys <- key :: t.free_vkeys
  end

let evict t ~phys =
  let vkey = t.owner.(phys) in
  let cid = get t.vkey_cid vkey in
  t.binding.(slot_of vkey) <- none;
  t.owner.(phys) <- free_tag;
  let pages = match t.evict_hook with Some h -> h ~cid ~vkey ~phys | None -> 0 in
  t.stats.evictions <- t.stats.evictions + 1;
  t.stats.retag_pages <- t.stats.retag_pages + pages;
  scrub_cores t ~phys;
  if tracing t then emit t (Telemetry.Event.Key_evict { cid; vkey; phys; pages })

(* The least recently used resident vkey's tag; pinned tags are never
   candidates. *)
let lru_slot t =
  let best = ref (-1) in
  for k = t.lo to t.hi do
    if t.owner.(k) >= 0 && (!best < 0 || t.last_used.(k) < t.last_used.(!best)) then best := k
  done;
  if !best < 0 then invalid_arg "Keymux.phys_of: every physical tag is pinned";
  !best

let phys_of t vkey =
  if not (is_virtual vkey) then vkey
  else
    let phys = get t.binding vkey in
    if phys <> none then begin
      touch t phys;
      phys
    end
    else begin
      let cid = get t.vkey_cid vkey in
      if cid = none then
        invalid_arg (Printf.sprintf "Keymux.phys_of: vkey %d not allocated" vkey);
      let slot =
        match free_slot t with
        | -1 ->
            let victim = lru_slot t in
            evict t ~phys:victim;
            victim
        | k -> k
      in
      let cost = Cpu.cost t.cpu in
      Cost.charge_cat cost Telemetry.Attrib.Keymux cost.Cost.model.Cost.key_reassign;
      t.owner.(slot) <- vkey;
      t.binding.(slot_of vkey) <- slot;
      touch t slot;
      t.stats.fault_ins <- t.stats.fault_ins + 1;
      if tracing t then emit t (Telemetry.Event.Key_fault_in { cid; vkey; phys = slot });
      slot
    end
