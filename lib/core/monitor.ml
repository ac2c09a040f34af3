module Str_tbl = Hashtbl.Make (String)

let monitor_cid = 0
let shared_key = 15
let monitor_key = 0
let max_cubicles = 1024  (* cids are below this *)

(* One page run a cubicle owns; [freeable] marks an [alloc_pages] run,
   the only kind [free_pages] takes back. *)
type run = { first : int; npages : int; freeable : bool }

(* Everything the monitor knows about one cubicle: [destroy_cubicle]
   drops it all by dropping the record. *)
type cubicle = {
  cid : Types.cid;
  name : string;
  kind : Types.kind;
  key : int;
  mutable stack_base : int;
  stack_pages : int;
  mutable heaps : Mm.Suballoc.t list;
  windows : Window.table;
  mutable exports : string list;
  heap_grow_pages : int;
  mutable extra_keys : int list;  (* dedicated window tags this cubicle may use *)
  mutable runs : run list;  (* every page run it owns, newest first *)
  mutable ascending : run list option;
      (* [runs] by base page, kept until a run comes or goes *)
  mutable grants : Window.t list;  (* the peers' windows currently open for it *)
  mutable guards : (int * int) list;
      (* (thunk address, guard entry address), one per call edge *)
  mutable iface : Iface.t option;  (* the interface summary it was built with *)
}

type policy = {
  mapping : [ `Lazy_trap | `Eager_on_open ];
      (* Lazy_trap is CubicleOS's trap-and-map; Eager_on_open retags a
         window's pages to the grantee when it is opened (no faults,
         but key writes whether or not the grantee ever touches them). *)
  revocation : [ `Causal | `Eager_revoke ];
      (* Causal is CubicleOS's lazy revocation (§5.6); Eager_revoke
         retags pages back to their owner on window_close. *)
}

let default_policy = { mapping = `Lazy_trap; revocation = `Causal }

type t = {
  m_cpu : Hw.Cpu.t;
  palloc : Mm.Suballoc.t;  (* page frames: page units, alignment 1 *)
  meta : Mm.Page_meta.t;
  protection : Types.protection;
  policy : policy;
  stats : Stats.t;
  cubs : cubicle option array;  (* by cid; [None] for a free cid *)
  by_name : Types.cid Str_tbl.t;
  mutable next_cid : Types.cid;
  mutable free_cids : Types.cid list;  (* cids recycled by destroy_cubicle *)
  symbols : export Str_tbl.t;
  mutable by_sid : export option array;  (* [symbols] by the bus's symbol id *)
  mutable sym_stamp : int;
      (* [symbols]' stamp: every add and removal takes a fresh one *)
  windex : Window.index;  (* the ACL index every window table shares *)
  virtualise : bool;  (* libmpk-style tag virtualisation (paper §8) *)
  keys : Hw.Keymux.t;
      (* the one tag pool: vkeys under [virtualise], pinned tags otherwise *)
  exec : Telemetry.Attrib.t;  (* the execution context; [exec.cur] is the current cubicle *)
}

and ctx = { mon : t; self : Types.cid; caller : Types.cid; cpu : Hw.Cpu.t }
and fn = ctx -> int array -> int
and export = {
  e_sym : string;
  e_sid : int;  (* the symbol's id in the bus's call counters *)
  e_owner : Types.cid;
  e_fn : fn;
  e_stack_bytes : int;
}

(* A call site's handle on a symbol, resolved lazily: [i_sid] is the
   export's slot in [by_sid] while [i_stamp] equals the calling
   monitor's [sym_stamp]. It holds ints, not the export: a handle at
   module level must not keep a dead machine's components alive. *)
type import = { i_sym : string; mutable i_stamp : int; mutable i_sid : int }

type export_spec = { sym : string; fn : fn; stack_bytes : int }

(* Symbol-table stamps come from one counter shared by every monitor, so
   a stamp names one monitor's table between two changes: a handle
   resolved on another monitor, or before an export came or went, never
   carries the current stamp. *)
let last_stamp = ref 0

let fresh_stamp () =
  incr last_stamp;
  !last_stamp

let import sym = { i_sym = sym; i_stamp = 0; i_sid = 0 }

let cpu t = t.m_cpu
let cost t = Hw.Cpu.cost t.m_cpu
let bus t = Hw.Cpu.bus t.m_cpu

let stats t = t.stats
let meta t = t.meta
let[@inline] current t = t.exec.Telemetry.Attrib.cur

(* Every change of the executing cubicle goes through here, the one
   writer besides [Hw.Cpu.set_core] of the execution context, so cycle
   attribution always bills the right row. *)
let set_cur t cid = Telemetry.Attrib.set_current t.exec cid

(* Event sites test [tracing] first, so an untraced run never builds
   the event. *)
let[@inline] tracing t = (Hw.Cpu.bus t.m_cpu).Telemetry.Bus.tracing
let emit t ev = Telemetry.Bus.emit (Hw.Cpu.bus t.m_cpu) ev

let find t cid =
  if cid >= 0 && cid < Array.length t.cubs then Array.unsafe_get t.cubs cid else None

let get t cid =
  match find t cid with Some c -> c | None -> raise (Types.Denied (No_cubicle cid))

let mpk_on t = match t.protection with Types.Mpk | Types.Full -> true | _ -> false

(* libmpk-style tag virtualisation: a cubicle's key may be virtual
   (>= 16); {!Hw.Keymux} maps it on demand to one of the 14 physical
   tags, evicting the least recently used binding when none is free.
   The eviction hook installed in [create] walks the evicted cubicle's
   pages back to the monitor tag so a reassigned physical key can never
   leak access — this scrubbing (plus per-core PKRU shootdowns and the
   libmpk reassignment cost, both priced inside Keymux) is the
   virtualisation cost the paper alludes to when it points at libmpk. *)
let phys_of t (c : cubicle) = Hw.Keymux.phys_of t.keys c.key

(* PKRU for an executing cubicle: its own tag, the shared tag, and any
   dedicated window tags it has been granted. Ordinary windowed pages
   are reached by retagging, not by widening PKRU. *)
let pkru_for t cid =
  let c = get t cid in
  match c.kind with
  | Types.Trusted -> Hw.Pkru.all_allow
  | Types.Isolated | Types.Shared ->
      List.fold_left Hw.Pkru.allow
        (Hw.Pkru.allow (Hw.Pkru.allow Hw.Pkru.all_deny (phys_of t c)) shared_key)
        c.extra_keys

(* Restoring a PKRU saved across a nested call/run is only sound when
   the tags it grants still mean what they meant at save time. Under
   tag virtualisation a physical tag in the saved value may have been
   evicted and rebound to a *different* cubicle during the nested run;
   [Keymux.scrub_cores] fixes live registers only, so writing the
   saved value back would silently re-admit the recycled tag until the
   context's next key fault. Recompute the register from the saved
   cubicle instead (re-faulting its key in if it was evicted). A
   fully-permissive register belongs to trusted context and is
   restored verbatim, as is anything saved while a trusted cubicle was
   current (host-side drivers may narrow PKRU without moving [cur]).
   Without virtualisation the raw restore is kept, although tags are
   recycled there too: [destroy_cubicle] and the last
   [window_close_dedicated] return a pinned tag to the pool, and a
   register saved before that may still grant it. *)
let restore_pkru t ~saved_cur ~saved_pkru =
  if
    t.virtualise
    && saved_pkru <> Hw.Pkru.all_allow
    && (match find t saved_cur with
       | Some c -> c.kind <> Types.Trusted
       | None -> false)
  then Hw.Cpu.wrpkru t.m_cpu (pkru_for t saved_cur)
  else Hw.Cpu.wrpkru t.m_cpu saved_pkru

(* --- trap-and-map fault handler (paper Fig. 4) ------------------------- *)

let retag t page ~to_key =
  Hw.Cpu.set_page_key t.m_cpu page to_key;
  Telemetry.Bus.count_retag (bus t);
  if tracing t then emit t (Telemetry.Event.Retag { page; to_key })

let handle_fault t (fault : Hw.Fault.t) =
  Telemetry.Bus.count_fault (bus t);
  match fault.reason with
  | Hw.Fault.Not_present | Hw.Fault.Page_perm ->
      (* Retagging cannot fix a page-level denial. *)
      false
  | Hw.Fault.Key_perm -> (
      let page = Hw.Addr.page_of fault.addr in
      if
        fault.access = Hw.Fault.Exec
        && not (t.virtualise && Mm.Page_meta.owner_id t.meta page = current t)
      then
        (* CFI: a cross-cubicle instruction fetch is never resolved by
           trap-and-map; only trampolines switch execution. A cubicle
           refetching its own scrubbed code pages (tag virtualisation)
           is the one exception. *)
        false
      else
        let owner_cid = Mm.Page_meta.owner_id t.meta page in
        if owner_cid < 0 then false
        else
          let cur = current t in
          if List.mem fault.key (get t cur).extra_keys then begin
            (* the page carries a dedicated window tag this cubicle is
               entitled to, but the active PKRU predates the grant:
               refresh it instead of retagging *)
            Hw.Cpu.wrpkru t.m_cpu (pkru_for t cur);
            true
          end
          else
            let cur_key = phys_of t (get t cur) in
            (* Fault-driven key fault-in (tag virtualisation): [phys_of]
               above may have just re-bound the cubicle's virtual key —
               possibly to a different physical tag than the one in the
               active PKRU, if the binding was evicted mid-call. Refresh
               the register, or the retag below would not make the retry
               pass. Never fires without virtualisation: an executing
               cubicle's PKRU always contains its own physical tag. *)
            if not (Hw.Pkru.can_read (Hw.Cpu.pkru t.m_cpu) cur_key) then
              Hw.Cpu.wrpkru t.m_cpu (pkru_for t cur);
            if owner_cid = cur then begin
              (* The cubicle touches its own page, currently tagged for a
                 peer because of a past window access (causal tag
                 consistency): map it back. *)
              retag t page ~to_key:cur_key;
              true
            end
            else
              match t.protection with
              | Types.Mpk ->
                  (* "w/o ACLs": every window is open for any access. *)
                  retag t page ~to_key:cur_key;
                  true
              | Types.Full ->
                  Hw.Cost.charge_cat (Hw.Cpu.cost t.m_cpu) Telemetry.Attrib.Window
                    (Hw.Cpu.cost t.m_cpu).model.acl_check;
                  let owner = get t owner_cid in
                  let klass = Mm.Page_meta.kind_code t.meta page in
                  if klass = 0 then false
                  else
                    let w =
                      Window.search owner.windows ~klass:(Mm.Page_meta.kind_of_code klass)
                        ~addr:fault.addr
                    in
                    if w == Window.none then begin
                      Telemetry.Bus.count_rejected (bus t);
                      if tracing t then emit t (Telemetry.Event.Rejected { cid = cur });
                      false
                    end
                    else begin
                      (* Linear ACL search cost; descriptor arrays are
                         short in practice (§5.3 step ❸). *)
                      Hw.Cost.charge_cat (Hw.Cpu.cost t.m_cpu) Telemetry.Attrib.Window
                        (2 * Window.inspected owner.windows w);
                      (* A write through an R-only grant is denied with
                         the full Key_perm pricing already paid
                         (acl_check + descriptor walk): the window was
                         found, the permission says no. Note the
                         asymmetry with lazy trap-and-map: a peer that
                         READ first got the page retagged to its key, so
                         its later write never faults — that silent hole
                         is the online race sink's job (CubiCheck), not
                         the fault handler's. *)
                      if
                        Window.is_open_for w cur
                        && (fault.access <> Hw.Fault.Write
                           || Window.writable w ~addr:fault.addr)
                      then begin
                        retag t page ~to_key:cur_key;
                        true
                      end
                      else begin
                        Telemetry.Bus.count_rejected (bus t);
                        if tracing t then emit t (Telemetry.Event.Rejected { cid = cur });
                        false
                      end
                    end
              | Types.None_ | Types.Trampolines -> false)

(* --- construction ------------------------------------------------------ *)

let monitor_reserved_pages = 16

(* [c]'s runs change: forget their ascending order. *)
let set_runs c runs =
  c.runs <- runs;
  c.ascending <- None

(* Every page [cid] owns, in ascending order. [alloc_owned_pages] is the
   only way a page gets an owner and every release drops its run, so
   the runs are exactly the cubicle's pages; they never overlap, so
   visiting them by base page visits the pages in ascending order. The
   order is sorted once per change of the runs, not once per walk: a
   tenant's runs stay put while the eviction walk visits them again and
   again. *)
let iter_owned_pages t cid f =
  match find t cid with
  | None -> ()
  | Some c ->
      let runs =
        match c.ascending with
        | Some runs -> runs
        | None ->
            let runs = List.sort (fun a b -> Int.compare a.first b.first) c.runs in
            c.ascending <- Some runs;
            runs
      in
      List.iter
        (fun r ->
          for p = r.first to r.first + r.npages - 1 do
            f p
          done)
        runs

let owned_pages t cid =
  let acc = ref [] in
  iter_owned_pages t cid (fun p -> acc := p :: !acc);
  List.rev !acc

let new_cubicle t ~cid ~name ~kind ~key ~stack_pages ~heap_grow_pages =
  {
    cid;
    name;
    kind;
    key;
    stack_base = 0;
    stack_pages;
    heaps = [];
    windows = Window.create_table ~owner:cid ~ncubicles:max_cubicles ~index:t.windex;
    exports = [];
    heap_grow_pages;
    extra_keys = [];
    runs = [];
    ascending = None;
    grants = [];
    guards = [];
    iface = None;
  }

let create ?(mem_bytes = 64 * 1024 * 1024) ?ncores ?model ?(policy = default_policy)
    ?(virtualise = false) ~protection () =
  let cpu = Hw.Cpu.create ~mem_bytes ?ncores ?model () in
  let npages = Hw.Cpu.npages cpu in
  let t =
    {
      m_cpu = cpu;
      palloc =
        Mm.Suballoc.create ~base:monitor_reserved_pages
          ~size:(npages - monitor_reserved_pages);
      meta = Mm.Page_meta.create npages;
      protection;
      policy;
      stats = Stats.of_bus ~tlbs:(Hw.Cpu.tlbs cpu) (Hw.Cpu.bus cpu);
      cubs = Array.make max_cubicles None;
      by_name = Str_tbl.create 64;
      next_cid = monitor_cid + 1;
      free_cids = [];
      symbols = Str_tbl.create 256;
      by_sid = [||];
      sym_stamp = fresh_stamp ();
      windex = Window.create_index npages;
      virtualise;
      keys = Hw.Keymux.create cpu;
      exec = Hw.Cost.attrib (Hw.Cpu.cost cpu);
    }
  in
  (* Eviction = walk the victim's still-resident pages back to the
     monitor tag. The walk visits only the victim's own page runs, in
     ascending page order. Priced per page under the Keymux category
     (the same pkey_mprotect cost as any runtime key write, but billed
     to the virtualisation layer rather than plain Mpk), billed to
     whichever cubicle's fault-in forced the eviction. The page-table
     hook fires the cross-core TLB shootdowns; Keymux itself scrubs the
     evicted tag from every core's PKRU and prices those wrpkrus. Only
     vkeys are ever evicted, so without virtualisation it never runs. *)
  Hw.Keymux.set_evict_hook t.keys
    (Some
       (fun ~cid ~vkey:_ ~phys ->
         let cost = Hw.Cpu.cost cpu in
         let pt = Hw.Cpu.page_table cpu in
         let count = ref 0 in
         iter_owned_pages t cid (fun page ->
             if Hw.Page_table.key pt page = phys then begin
               Hw.Cost.charge_cat cost Telemetry.Attrib.Keymux
                 cost.Hw.Cost.model.Hw.Cost.pkey_set;
               Hw.Page_table.set_key pt page monitor_key;
               if tracing t then
                 emit t (Telemetry.Event.Retag { page; to_key = monitor_key });
               incr count
             end);
         !count));
  (* Monitor's own pages: present, trusted key. *)
  for p = 0 to monitor_reserved_pages - 1 do
    Hw.Cpu.map_page cpu p Hw.Page_table.perm_rw ~key:monitor_key
  done;
  let mon_cubicle =
    new_cubicle t ~cid:monitor_cid ~name:"MONITOR" ~kind:Types.Trusted ~key:monitor_key
      ~stack_pages:2 ~heap_grow_pages:4
  in
  t.cubs.(monitor_cid) <- Some mon_cubicle;
  Str_tbl.replace t.by_name mon_cubicle.name monitor_cid;
  if mpk_on t then begin
    Hw.Cpu.set_mpk_enabled cpu true;
    Hw.Cpu.set_exec_follows_access cpu true;
    Hw.Cpu.set_handler cpu (Some (fun _cpu fault -> handle_fault t fault))
  end;
  t

let alloc_run t cid n ~kind ~perm ~freeable =
  let c = get t cid in
  let key = if mpk_on t then phys_of t c else c.key land 0xF in
  let page = Mm.Suballoc.alloc ~align:1 t.palloc n in
  for p = page to page + n - 1 do
    Hw.Cpu.map_page t.m_cpu p perm ~key;
    Mm.Page_meta.assign t.meta ~page:p ~owner:cid ~kind
  done;
  set_runs c ({ first = page; npages = n; freeable } :: c.runs);
  Hw.Addr.base_of_page page

let alloc_owned_pages t cid n ~kind ~perm = alloc_run t cid n ~kind ~perm ~freeable:false

(* Scrub, unmap and return one page run. Each page is zeroed so the
   next owner cannot read stale data, one page-sized privileged write
   per page. *)
let release_run t r =
  for p = r.first to r.first + r.npages - 1 do
    Hw.Cpu.priv_fill t.m_cpu (Hw.Addr.base_of_page p) Hw.Addr.page_size '\000';
    Mm.Page_meta.release t.meta ~page:p;
    Hw.Cpu.unmap_page t.m_cpu p
  done;
  Mm.Suballoc.free t.palloc r.first

(* Release every page run of [c]. Shared between destroy_cubicle and
   create_cubicle's failure rollback. *)
let release_runs t c =
  List.iter (release_run t) c.runs;
  set_runs c []

let create_cubicle t ~name ~kind ~heap_pages ~stack_pages =
  if Str_tbl.mem t.by_name name then raise (Types.Denied (Duplicate_cubicle name));
  let cid =
    match t.free_cids with
    | c :: rest ->
        t.free_cids <- rest;
        c
    | [] ->
        if t.next_cid >= max_cubicles then raise (Types.Denied Too_many_cubicles);
        let c = t.next_cid in
        t.next_cid <- c + 1;
        c
  in
  let undo_cid () =
    if cid = t.next_cid - 1 then t.next_cid <- cid else t.free_cids <- cid :: t.free_cids
  in
  let key =
    match kind with
    | Types.Trusted -> monitor_key
    | Types.Shared -> shared_key
    | Types.Isolated when t.virtualise ->
        (* virtual key: bound to a physical tag on demand *)
        Hw.Keymux.alloc t.keys ~cid
    | Types.Isolated -> (
        match Hw.Keymux.pin t.keys with
        | Some k -> k
        | None ->
            undo_cid ();
            raise (Types.Denied (Out_of_keys { dedicated = false })))
  in
  let cub =
    new_cubicle t ~cid ~name ~kind ~key ~stack_pages ~heap_grow_pages:(max 4 heap_pages)
  in
  t.cubs.(cid) <- Some cub;
  Str_tbl.replace t.by_name name cid;
  (* Partial-setup rollback: heap (or stack) exhaustion mid-setup must
     not leak the pages, key, cid or name already claimed — a spawn
     either fully succeeds or leaves the monitor exactly as it was. *)
  try
    if stack_pages > 0 then
      cub.stack_base <-
        alloc_owned_pages t cid stack_pages ~kind:Mm.Page_meta.Stack
          ~perm:Hw.Page_table.perm_rw;
    if heap_pages > 0 then begin
      let base =
        alloc_owned_pages t cid heap_pages ~kind:Mm.Page_meta.Heap ~perm:Hw.Page_table.perm_rw
      in
      cub.heaps <- [ Mm.Suballoc.create ~base ~size:(heap_pages * Hw.Addr.page_size) ]
    end;
    cid
  with e ->
    release_runs t cub;
    t.cubs.(cid) <- None;
    Str_tbl.remove t.by_name name;
    if kind = Types.Isolated then Hw.Keymux.free t.keys key;
    undo_cid ();
    raise e

(* Fold over the live cubicles, by ascending cid. *)
let fold_cubicles f t init =
  Array.fold_left (fun acc c -> match c with Some c -> f c acc | None -> acc) init t.cubs

let ncubicles t = fold_cubicles (fun _ n -> n + 1) t 0
let live_cids t = List.rev (fold_cubicles (fun c acc -> c.cid :: acc) t [])

let free_page_count t = Mm.Suballoc.size t.palloc - Mm.Suballoc.used_bytes t.palloc
let keymux t = if t.virtualise then Some t.keys else None
let cubicle_name t cid = (get t cid).name
let cubicle_kind t cid = (get t cid).kind
let cubicle_key t cid = phys_of t (get t cid)
let cubicle_raw_key t cid = (get t cid).key

let cubicle_heap_bytes t cid =
  List.fold_left (fun acc h -> acc + Mm.Suballoc.size h) 0 (get t cid).heaps

let stack_base t cid = (get t cid).stack_base

let lookup_cubicle t name =
  match Str_tbl.find_opt t.by_name name with
  | Some cid -> cid
  | None -> raise (Types.Denied (No_cubicle_named name))

let cubicle_exists t name = Str_tbl.mem t.by_name name
let is_live t cid = Option.is_some (find t cid)

(* A cid that is not live has no guard entries. *)
let guards t cid = match find t cid with Some c -> c.guards | None -> []
let set_guards t cid g = (get t cid).guards <- g
let iface t cid = (get t cid).iface
let set_iface t cid iface = (get t cid).iface <- Some iface
let windows_of t cid = (get t cid).windows
let ctx_for t cid = { mon = t; self = cid; caller = cid; cpu = t.m_cpu }
let ctx_call t cid caller = { mon = t; self = cid; caller; cpu = t.m_cpu }

let register_exports t cid specs =
  let c = get t cid in
  List.iter
    (fun { sym; fn; stack_bytes } ->
      if Str_tbl.mem t.symbols sym then raise (Types.Denied (Duplicate_symbol sym));
      let e_sid = Telemetry.Bus.intern_sym (bus t) sym in
      let e =
        { e_sym = sym; e_sid; e_owner = cid; e_fn = fn; e_stack_bytes = stack_bytes }
      in
      Str_tbl.replace t.symbols sym e;
      if e_sid >= Array.length t.by_sid then begin
        let a = Array.make (max (e_sid + 1) (2 * Array.length t.by_sid)) None in
        Array.blit t.by_sid 0 a 0 (Array.length t.by_sid);
        t.by_sid <- a
      end;
      t.by_sid.(e_sid) <- Some e;
      t.sym_stamp <- fresh_stamp ();
      c.exports <- sym :: c.exports)
    specs

let exports_of t cid = List.rev (get t cid).exports
let has_export t sym = Str_tbl.mem t.symbols sym

(* --- the cross-cubicle call path (trampolines, §5.5) ------------------- *)

(* The unwind every crossing and [run_as] share: back to the saved
   cubicle, then (so the restored context pays) to the saved PKRU. *)
let restore t ~saved_cur ~saved_pkru =
  set_cur t saved_cur;
  if mpk_on t then restore_pkru t ~saved_cur ~saved_pkru

(* A crossing's unwind: restore, then record the return. *)
let return t ~caller ~callee ~sym ~saved_cur ~saved_pkru =
  restore t ~saved_cur ~saved_pkru;
  Telemetry.Bus.count_return (bus t) ~caller ~callee ~sym

(* Look [imp] up by name and cache the answer under the current stamp;
   [None] if no cubicle exports it. *)
let resolve t imp =
  match Str_tbl.find_opt t.symbols imp.i_sym with
  | Some e as found ->
      imp.i_sid <- e.e_sid;
      imp.i_stamp <- t.sym_stamp;
      found
  | None -> None

let[@inline] resolved t imp =
  if imp.i_stamp = t.sym_stamp then Array.unsafe_get t.by_sid imp.i_sid else resolve t imp

let imported t imp = Option.is_some (resolved t imp)

let call t ~caller imp args =
  let exp =
    match resolved t imp with
    | Some e -> e
    | None ->
        Telemetry.Bus.count_rejected (bus t);
        if tracing t then emit t (Telemetry.Event.Rejected { cid = caller });
        raise (Types.Denied (Unresolved_symbol imp.i_sym))
  in
  let sym = exp.e_sym in
  let callee = exp.e_owner in
  let callee_cub = get t callee in
  let model = (Hw.Cpu.cost t.m_cpu).model in
  match callee_cub.kind with
  | Types.Shared ->
      (* Shared cubicles execute with the caller's privileges, stack and
         heap; the monitor is not involved (§3 step ❹). *)
      Telemetry.Bus.count_shared_call (bus t) ~caller ~sym ~sid:exp.e_sid;
      Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Tramp model.call_direct;
      exp.e_fn (ctx_call t caller caller) args
  | Types.Trusted | Types.Isolated when callee = caller && current t = caller ->
      (* Intra-cubicle call (e.g. components merged into one cubicle,
         Fig. 9a): the target is in the cubicle that is already
         executing — an ordinary function call, no trampoline. *)
      Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Tramp model.call_direct;
      exp.e_fn (ctx_call t callee caller) args
  | Types.Trusted | Types.Isolated ->
      (* The call start is recorded (counter, latency plane, traced Call
         event) before anything else, and the one unwind below runs on
         every exit, so latencies pair up and duration slices nest even
         when the callee raises. *)
      Telemetry.Bus.count_call (bus t) ~caller ~callee ~sym ~sid:exp.e_sid;
      let saved_cur = current t and saved_pkru = Hw.Cpu.pkru t.m_cpu in
      match
        (match t.protection with
        | Types.None_ -> Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Tramp model.call_direct
        | Types.Trampolines | Types.Mpk | Types.Full ->
            Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Tramp
              (model.tramp_fixed + model.stack_switch);
            (* Copy by-stack arguments across per-cubicle stacks. *)
            let caller_cub = get t caller in
            if
              exp.e_stack_bytes > 0 && caller_cub.stack_base > 0
              && callee_cub.stack_base > 0
            then
              Hw.Cpu.priv_blit t.m_cpu ~src:caller_cub.stack_base
                ~dst:callee_cub.stack_base
                ~len:
                  (Int.min exp.e_stack_bytes
                     (callee_cub.stack_pages * Hw.Addr.page_size)));
        (* The caller's context pays for the wrpkru: it is written
           before the cubicle switch. *)
        if mpk_on t then Hw.Cpu.wrpkru t.m_cpu (pkru_for t callee);
        set_cur t callee;
        exp.e_fn (ctx_call t callee caller) args
      with
      | r ->
          return t ~caller ~callee ~sym ~saved_cur ~saved_pkru;
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          return t ~caller ~callee ~sym ~saved_cur ~saved_pkru;
          Printexc.raise_with_backtrace e bt

(* Unlike a crossing, [run_as] switches the cubicle before writing
   PKRU, so the entered cubicle pays for the wrpkru. *)
let run_as t cid f =
  let saved_cur = current t and saved_pkru = Hw.Cpu.pkru t.m_cpu in
  set_cur t cid;
  if mpk_on t then Hw.Cpu.wrpkru t.m_cpu (pkru_for t cid);
  match f () with
  | r ->
      restore t ~saved_cur ~saved_pkru;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      restore t ~saved_cur ~saved_pkru;
      Printexc.raise_with_backtrace e bt

(* --- memory services ---------------------------------------------------- *)

let charge_service t =
  let model = (cost t).model in
  match t.protection with
  | Types.None_ -> Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Tramp model.call_direct
  | _ -> Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Tramp model.tramp_fixed

let malloc t cid ?(align = 8) size =
  charge_service t;
  let c = get t cid in
  let rec try_heaps = function
    | [] ->
        let pages = max c.heap_grow_pages (Hw.Addr.pages_for (size + align)) in
        let base = alloc_owned_pages t cid pages ~kind:Mm.Page_meta.Heap ~perm:Hw.Page_table.perm_rw in
        let h = Mm.Suballoc.create ~base ~size:(pages * Hw.Addr.page_size) in
        c.heaps <- h :: c.heaps;
        Mm.Suballoc.alloc ~align h size
    | h :: rest -> ( try Mm.Suballoc.alloc ~align h size with Mm.Suballoc.Exhausted -> try_heaps rest)
  in
  try_heaps c.heaps

let free t cid addr =
  charge_service t;
  let c = get t cid in
  let rec find = function
    | [] -> raise (Types.Denied (Foreign_free { name = c.name; addr }))
    | h :: rest -> (
        match Mm.Suballoc.block_size h addr with
        | Some _ -> Mm.Suballoc.free h addr
        | None -> find rest)
  in
  find c.heaps

let alloc_pages t cid n ~kind =
  charge_service t;
  (* Runtime page allocation assigns MPK keys via the expensive
     pkey_mprotect path (load-time assignment in [alloc_owned_pages]
     happens before the system runs and is not charged). *)
  if mpk_on t then Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Mpk (n * (cost t).model.pkey_set);
  alloc_run t cid n ~kind ~perm:Hw.Page_table.perm_rw ~freeable:true

(* The [alloc_pages] run based at [page], or [None]. *)
let rec freeable_run page = function
  | [] -> None
  | r :: rest -> if r.first = page && r.freeable then Some r else freeable_run page rest

let rec without_run r = function
  | [] -> []
  | r' :: rest -> if r' == r then rest else r' :: without_run r rest

let free_pages t cid base =
  charge_service t;
  (* returning pages strictly reassigns their owner (L4Sec-style), so
     the key write is paid on free as well *)
  let page = Hw.Addr.page_of base in
  let c = get t cid in
  match if Hw.Addr.align_down base = base then freeable_run page c.runs else None with
  | None -> (
      match Mm.Page_meta.owner t.meta page with
      | Some owner when owner <> cid -> raise (Types.Denied (Run_not_owned { cid; base }))
      | _ -> raise (Types.Denied (Not_allocation_base base)))
  | Some r ->
      set_runs c (without_run r c.runs);
      if mpk_on t then
        Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Mpk (r.npages * (cost t).model.pkey_set);
      (* scrubbed like a whole-cubicle teardown *)
      release_run t r

(* --- window management (Table 1) ---------------------------------------- *)

(* The cycle charge and the always-on counter happen up front (the
   monitor bills the service call whether or not it succeeds); the
   traced event is emitted only after the operation succeeds, carrying
   enough detail (wid / peer / range) that the CubiCheck replay plane
   can mirror the full window ACL state from the event stream alone. *)
let charge_window_op t =
  match t.protection with
  | Types.None_ -> ()
  | _ ->
      Telemetry.Bus.count_window_op (bus t);
      Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Window (cost t).model.window_op

(* Every argument is passed at every site: an optional one would box
   each value it is given. Fields a service does not use are wid -1,
   peer -1, ptr 0, size 0 and rw true. *)
let emit_window t cid op ~wid ~peer ~ptr ~size ~rw =
  if tracing t && t.protection <> Types.None_ then
    emit t (Telemetry.Event.Window { cid; op; wid; peer; ptr; size; rw })

(* Every grant goes through these two, so each grantee's [grants]
   always lists exactly the windows open for it and teardown revokes a
   dying cubicle's grants without scanning every peer's windows. A
   cubicle holds few grants, so they are a list, newest first: the
   transient window a request opens and closes again sits at its head.
   (owner, wid) names one live window. *)
let same_grant (a : Window.t) (b : Window.t) = a.owner = b.owner && a.wid = b.wid

let rec holds_grant w = function
  | [] -> false
  | w' :: rest -> same_grant w w' || holds_grant w rest

let rec drop_grant w = function
  | [] -> []
  | w' :: rest -> if same_grant w w' then rest else w' :: drop_grant w rest

let open_for t (w : Window.t) peer =
  Window.open_for w peer;
  let c = get t peer in
  if not (holds_grant w c.grants) then c.grants <- w :: c.grants

let forget_grant t (w : Window.t) peer =
  match find t peer with Some c -> c.grants <- drop_grant w c.grants | None -> ()

let close_for t w peer =
  Window.close_for w peer;
  forget_grant t w peer

let grants_held t cid =
  List.sort
    (fun (a : Window.t) (b : Window.t) ->
      match Int.compare a.owner b.owner with 0 -> Int.compare a.wid b.wid | n -> n)
    (get t cid).grants

let rec forget_grants_of t w = function
  | [] -> ()
  | peer :: rest ->
      forget_grant t w peer;
      forget_grants_of t w rest

(* Drop every grantee's index entry for [w], before its open set is
   cleared or dies with its owner. *)
let forget_grants t (w : Window.t) = forget_grants_of t w w.Window.opened

let window_init t cid ~klass =
  charge_window_op t;
  let wid = (Window.init (get t cid).windows ~klass).wid in
  emit_window t cid Telemetry.Event.Init ~wid ~peer:(-1) ~ptr:0 ~size:0 ~rw:true;
  wid

(* Extending a descriptor array is a monitor service: it reallocates
   the array in monitor-managed memory (charged as an allocation-sized
   operation). *)
let window_table_extend t cid ~klass =
  charge_window_op t;
  Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Mpk (cost t).model.pkey_set;
  Window.extend (get t cid).windows klass;
  emit_window t cid Telemetry.Event.Extend ~wid:(-1) ~peer:(-1) ~ptr:0 ~size:0 ~rw:true

let find_window t cid wid = Window.find (get t cid).windows wid

(* Windows may only carry non-empty spans of memory the caller owns, of
   the window's data class. *)
let check_range_owned t cid (w : Window.t) wid ~ptr ~size =
  if size <= 0 then raise (Types.Denied (Bad_range_size { wid; size }));
  let first = Hw.Addr.page_of ptr and last = Hw.Addr.page_of (ptr + size - 1) in
  for p = first to last do
    let o = Mm.Page_meta.owner_id t.meta p in
    if o < 0 then raise (Types.Denied (Unowned_page p));
    if o <> cid then raise (Types.Denied (Foreign_page { page = p; owner = o; cid }));
    (* an owned page has a class *)
    let k = Mm.Page_meta.kind_code t.meta p in
    if k <> Mm.Page_meta.code w.Window.klass then
      raise
        (Types.Denied
           (Wrong_class
              {
                page = p;
                page_class = Mm.Page_meta.kind_of_code k;
                wid;
                window_class = w.Window.klass;
              }))
  done

(* Permission downgrade RW -> R of an existing grant, in place. Under
   causal tag consistency this only narrows the ACL the fault handler
   (and the replay mirror) consults: a peer holding a stale RW-era
   mapping keeps writing until the page migrates back — the same lazy
   window the paper accepts for revocation (§5.6), and exactly what the
   online race sink watches for. *)
let window_downgrade t cid wid ~ptr =
  charge_window_op t;
  let w = find_window t cid wid in
  (* recorded in the event, so replay can retire the exact range *)
  let size = (Window.range_at w ~ptr).size in
  Window.downgrade_range w ~ptr;
  emit_window t cid Telemetry.Event.Downgrade ~wid ~peer:(-1) ~ptr ~size ~rw:false

let window_remove t cid wid ~ptr =
  charge_window_op t;
  let w = find_window t cid wid in
  let size = (Window.range_at w ~ptr).size in
  Window.remove_range (get t cid).windows w ~ptr;
  emit_window t cid Telemetry.Event.Remove ~wid ~peer:(-1) ~ptr ~size ~rw:true

let retag_window_pages t w ~to_key =
  List.iter
    (fun (r : Window.range) ->
      let first = Hw.Addr.page_of r.ptr and last = Hw.Addr.page_of (r.ptr + r.size - 1) in
      for p = first to last do
        if Hw.Cpu.page_key t.m_cpu p <> to_key then retag t p ~to_key
      done)
    w.Window.ranges

(* Open [w] for [other], retagging its pages to the grantee up front
   under [`Eager_on_open]. *)
let grant t w other =
  open_for t w other;
  if mpk_on t && t.policy.mapping = `Eager_on_open then
    retag_window_pages t w ~to_key:(phys_of t (get t other))

(* Under [`Eager_revoke], retag [w]'s pages back to their owner [cid]
   as soon as a grant goes. Under causal tag consistency (the default,
   §5.6) nothing happens: pages migrate back lazily when their owner (or
   another authorised cubicle) next touches them. *)
let revoke_eager t w cid =
  if mpk_on t && t.policy.revocation = `Eager_revoke then
    retag_window_pages t w ~to_key:(phys_of t (get t cid))

let window_close t cid wid other =
  charge_window_op t;
  let w = find_window t cid wid in
  close_for t w other;
  revoke_eager t w cid;
  emit_window t cid Telemetry.Event.Close ~wid ~peer:other ~ptr:0 ~size:0 ~rw:true

let window_close_all t cid wid =
  charge_window_op t;
  let w = find_window t cid wid in
  forget_grants t w;
  Window.close_all w;
  revoke_eager t w cid;
  emit_window t cid Telemetry.Event.Close_all ~wid ~peer:(-1) ~ptr:0 ~size:0 ~rw:true

let window_destroy t cid wid =
  charge_window_op t;
  let c = get t cid in
  let w = find_window t cid wid in
  forget_grants t w;
  Window.destroy c.windows w;
  emit_window t cid Telemetry.Event.Destroy ~wid ~peer:(-1) ~ptr:0 ~size:0 ~rw:true

(* --- grants: batched window ops, grant-and-forward ---------------------- *)

(* The single services are the primitive; a batch validates every
   element first, then applies each through the single service's
   mutate-and-emit step, and serves the sendfile fast path. *)

(* A batched call pays one monitor crossing (one window_op charge) plus
   a small per-extra-descriptor cost, instead of n full crossings. *)
let charge_batch_extra t n =
  if t.protection <> Types.None_ && n > 1 then
    Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Window (2 * (n - 1))

(* Grant one validated range. One Add event per range keeps the replay
   mirror and counters exact. *)
let add_range t cid w wid ~perm ~ptr ~size =
  Window.add_range (get t cid).windows w ~perm ~ptr ~size;
  emit_window t cid Telemetry.Event.Add ~wid ~peer:(-1) ~ptr ~size ~rw:(perm = Window.RW)

let window_add t cid ?(perm = Window.RW) wid ~ptr ~size =
  charge_window_op t;
  let w = find_window t cid wid in
  check_range_owned t cid w wid ~ptr ~size;
  add_range t cid w wid ~perm ~ptr ~size

(* Atomic batch: every range is validated before any is granted, so a
   bad descriptor in the middle cannot leave a half-applied batch. *)
let window_add_ranges t cid ?(perm = Window.RW) wid ranges =
  if List.is_empty ranges then raise (Types.Denied (Empty_batch Ranges));
  charge_window_op t;
  charge_batch_extra t (List.length ranges);
  let w = find_window t cid wid in
  List.iter (fun (ptr, size) -> check_range_owned t cid w wid ~ptr ~size) ranges;
  List.iter (fun (ptr, size) -> add_range t cid w wid ~perm ~ptr ~size) ranges

let check_peer t cid other =
  if other = cid then raise (Types.Denied (Window_to_self { dedicated = false }));
  ignore (get t other)

let emit_open t cid wid other =
  emit_window t cid Telemetry.Event.Open ~wid ~peer:other ~ptr:0 ~size:0 ~rw:true

let window_open t cid wid other =
  charge_window_op t;
  check_peer t cid other;
  let w = find_window t cid wid in
  grant t w other;
  emit_open t cid wid other

(* Every grant (and its eager retags) precedes the first Open event. *)
let window_open_many t cid wid peers =
  if List.is_empty peers then raise (Types.Denied (Empty_batch Peers));
  charge_window_op t;
  charge_batch_extra t (List.length peers);
  List.iter (check_peer t cid) peers;
  let w = find_window t cid wid in
  List.iter (grant t w) peers;
  List.iter (emit_open t cid wid) peers

(* Grant-and-forward: a cubicle that already holds [owner]'s window
   open for it may extend the grant to a third cubicle further down the
   call chain, without bouncing control back to the owner (paper §5.6
   requires windows opened for every cubicle in a nested chain ahead of
   time — the forward is the monitor-mediated way to do that from the
   middle of the chain). The event is emitted against the owner's
   window so the replay mirror sees the owner's ACL grow, exactly as if
   the owner had opened it. *)
let window_forward t cid ~owner wid other =
  charge_window_op t;
  if other = owner then raise (Types.Denied (Forward_to_owner { owner; wid }));
  ignore (get t other);
  let w = find_window t owner wid in
  if cid <> owner && not (Window.is_open_for w cid) then
    raise (Types.Denied (Not_open_for_forwarder { wid; owner; forwarder = cid }));
  grant t w other;
  emit_window t owner Telemetry.Event.Forward ~wid ~peer:other ~ptr:0 ~size:0 ~rw:true

(* Explicit grant check (CubiCheck): does [cid] hold a live window open
   for [peer] whose ranges cover the whole [ptr, ptr+size) span, with
   permission for [access] (default Read)? The byte-exact complement to
   the page-granular trap-and-map path. *)
let window_grants ?(access = Window.Read) t cid ~peer ~ptr ~size =
  List.exists
    (fun w -> Window.is_open_for w peer && Window.covers w ~access ~ptr ~size)
    (Window.live_windows (get t cid).windows)

(* A window-specific tag comes from the one pool, pinned. Exhaustion
   and virtualisation are reported before anything is mutated. *)
let pin_dedicated_key t =
  if t.virtualise then raise (Types.Denied Dedicated_virtualised);
  match Hw.Keymux.pin t.keys with
  | Some k -> k
  | None -> raise (Types.Denied (Out_of_keys { dedicated = true }))

(* Refresh the active PKRU if an affected cubicle is executing. *)
let refresh_pkru_if_current t cid other =
  let cur = current t in
  if mpk_on t && (cur = cid || cur = other) then Hw.Cpu.wrpkru t.m_cpu (pkru_for t cur)

(* ERIM/Hodor-style window-specific tags (contrasted in §5.6, suggested
   as a hybrid in §8): the window's pages get a tag of their own, which
   both the owner and the grantee enable in PKRU. Accesses to a hot
   window then never fault — at the price of one of the 16 keys per
   window. Both services validate, then allocate, then mutate, then
   emit, so a failing call changes nothing but the billed cycles. *)
let window_open_dedicated t cid wid other =
  charge_window_op t;
  if other = cid then raise (Types.Denied (Window_to_self { dedicated = true }));
  let grantee = get t other in
  let w = find_window t cid wid in
  let key =
    match w.Window.dedicated_key with
    | Some k -> k
    | None ->
        let k = pin_dedicated_key t in
        Window.set_dedicated_key w (Some k);
        let owner = get t cid in
        owner.extra_keys <- k :: owner.extra_keys;
        if mpk_on t then retag_window_pages t w ~to_key:k;
        k
  in
  open_for t w other;
  if not (List.mem key grantee.extra_keys) then
    grantee.extra_keys <- key :: grantee.extra_keys;
  refresh_pkru_if_current t cid other;
  emit_window t cid Telemetry.Event.Open_dedicated ~wid ~peer:other ~ptr:0 ~size:0 ~rw:true

let window_close_dedicated t cid wid other =
  charge_window_op t;
  let w = find_window t cid wid in
  let grantee = get t other in
  close_for t w other;
  (match w.Window.dedicated_key with
  | None -> ()
  | Some key ->
      grantee.extra_keys <- List.filter (fun k -> k <> key) grantee.extra_keys;
      (* last grantee gone: return the tag and the pages to the owner *)
      let last = w.Window.opened = [] in
      if last then begin
        let owner = get t cid in
        owner.extra_keys <- List.filter (fun k -> k <> key) owner.extra_keys;
        Window.set_dedicated_key w None;
        if mpk_on t then retag_window_pages t w ~to_key:owner.key
      end;
      refresh_pkru_if_current t cid other;
      (* after the refresh, so only registers the refresh did not
         rewrite still hold the tag and need the pool's scrub *)
      if last then Hw.Keymux.free t.keys key);
  emit_window t cid Telemetry.Event.Close_dedicated ~wid ~peer:other ~ptr:0 ~size:0
    ~rw:true

(* Dynamic-plane observability: record a checked memory access that
   touches pages owned by a different cubicle. Only runs while tracing
   (one branch otherwise), never charges cycles, and skips trusted
   cubicles and the monitor itself — trusted code legitimately touches
   everything, so reporting it would be pure noise. These events are
   what lets the CubiCheck replay plane see accesses that never fault:
   a write through a stale tag after window_close (causal revocation,
   §5.6) is invisible to the fault handler by design. *)
let observe_access t ~addr ~len ~access =
  let b = Hw.Cpu.bus t.m_cpu in
  let cur = current t in
  if b.Telemetry.Bus.tracing && cur <> monitor_cid then
    match (get t cur).kind with
    | Types.Trusted -> ()
    | Types.Isolated | Types.Shared ->
        let first = Hw.Addr.page_of addr
        and last = Hw.Addr.page_of (addr + max 1 len - 1) in
        for p = first to last do
          let owner = Mm.Page_meta.owner_id t.meta p in
          if owner >= 0 && owner <> cur then
            Telemetry.Bus.emit b
              (Telemetry.Event.Window_access { cid = cur; owner; page = p; access })
        done

let dedicated_keys_in_use t =
  fold_cubicles
    (fun c acc ->
      acc
      + List.length
          (List.filter
             (fun w -> w.Window.dedicated_key <> None)
             (Window.live_windows c.windows)))
    t 0


(* Unload a cubicle (the loader's dlclose counterpart): its exports
   vanish from the symbol table (later calls are CFI errors), all its
   pages are scrubbed, unmapped and returned to the system allocator,
   and its MPK key — physical or virtual — and its cid go back to the
   pools for reuse by a later spawn. *)
let destroy_cubicle t cid =
  if cid = monitor_cid then raise (Types.Denied Destroy_monitor);
  if current t = cid then raise (Types.Denied Destroy_running);
  let c = get t cid in
  (* remove its exports *)
  List.iter
    (fun sym ->
      t.by_sid.((Str_tbl.find t.symbols sym).e_sid) <- None;
      Str_tbl.remove t.symbols sym;
      t.sym_stamp <- fresh_stamp ())
    c.exports;
  (* Revoke every grant the dying cubicle holds on peers' windows. The
     cid is about to be recycled, and a stale `opened` bit would hand
     the unrelated successor every window the dead cubicle was ever
     granted — the fault handler's is_open_for check cannot tell the
     two apart. Close events keep the replay mirror's opened-sets in
     step, so CubiCheck judges the recycled cid against the same clean
     ACL state. The grant index lists exactly those windows; they are
     closed in (owner, wid) order. *)
  List.iter
    (fun (w : Window.t) ->
      Window.close_for w cid;
      emit_window t w.owner Telemetry.Event.Close ~wid:w.wid ~peer:cid ~ptr:0 ~size:0 ~rw:true)
    (grants_held t cid);
  (* The dying cubicle's own windows are destroyed: the shared ACL index
     must not keep them, or a recycled cid's table would find them. The
     replay mirror only forgets a window on a Destroy event — emit them,
     or a recycled cid that never re-inits the wid would inherit the
     dead window's grants in the mirror. Their grantees' index entries
     go too. A dedicated window tag is returned
     to the pool and stripped from every grantee's extra-key set, so the
     recycled tag cannot alias a future window's pages through a stale
     PKRU grant. *)
  List.iter
    (fun w ->
      forget_grants t w;
      (match w.Window.dedicated_key with
      | Some k ->
          Array.iter
            (Option.iter (fun oc ->
                 oc.extra_keys <- List.filter (fun k' -> k' <> k) oc.extra_keys))
            t.cubs;
          Window.set_dedicated_key w None;
          Hw.Keymux.free t.keys k
      | None -> ());
      Window.destroy c.windows w;
      emit_window t cid Telemetry.Event.Destroy ~wid:w.Window.wid ~peer:(-1) ~ptr:0 ~size:0
        ~rw:true)
    (Window.live_windows c.windows);
  (* scrub and release every page run *)
  release_runs t c;
  (* recycle the key: a virtual key's binding is dropped without the
     eviction price (the pages were just scrubbed and unmapped), the
     physical slot (and a vkey number) become reusable, and every core
     still caching the tag is scrubbed *)
  if c.kind = Types.Isolated then Hw.Keymux.free t.keys c.key;
  t.cubs.(cid) <- None;
  Str_tbl.remove t.by_name c.name;
  t.free_cids <- cid :: t.free_cids

let tag_evictions t = (Hw.Keymux.stats t.keys).Hw.Keymux.evictions
let page_owner t page = Mm.Page_meta.owner t.meta page
let retag_count t = Stats.retags t.stats
