(* Each simulated core owns its own PKRU register and software TLB (as
   the real hardware does); memory, page table and the cycle/telemetry
   sinks are shared. Execution is still one host thread: the scheduler
   interleaves thread slices and calls [set_core] before each, which
   swaps the architectural per-core state and moves the execution
   context ([Cost.attrib]) that cycle charges and events read to pick
   their per-core counter and track. *)

type core_state = {
  tlb : Tlb.t;
  mutable pkru : Pkru.t;
}

type t = {
  mem : Phys_mem.t;
  pt : Page_table.t;
  cost : Cost.t;
  bus : Telemetry.Bus.t;
  cores : core_state array;
  mutable cur : core_state;  (* == cores.(core_id t); cached for the checked accessors *)
  mutable mpk_enabled : bool;
  mutable exec_follows_access : bool;
  mutable handler : handler option;
  mutable in_handler : bool;
  mutable wrpkru_count : int;
  mutable fault_count : int;
  mutable shootdowns : int;  (* TLB invalidations delivered to remote cores *)
}

and handler = t -> Fault.t -> bool

let create ?(mem_bytes = 64 * 1024 * 1024) ?(ncores = 1) ?model () =
  if ncores < 1 then invalid_arg "Cpu.create: ncores must be >= 1";
  let mem = Phys_mem.create mem_bytes in
  let pt = Page_table.create (Phys_mem.npages mem) in
  let cores =
    Array.init ncores (fun _ ->
        { tlb = Tlb.create (Phys_mem.npages mem); pkru = Pkru.all_allow })
  in
  let cost = Cost.create ?model ~ncores () in
  let bus = Telemetry.Bus.create ~now:(fun () -> Cost.cycles cost) ~ctx:(Cost.attrib cost) () in
  let t =
    {
      mem;
      pt;
      cost;
      bus;
      cores;
      cur = cores.(0);
      mpk_enabled = false;
      exec_follows_access = false;
      handler = None;
      in_handler = false;
      wrpkru_count = 0;
      fault_count = 0;
      shootdowns = 0;
    }
  in
  (* Any page-table mutation — monitor retag, loader perm change, a
     test poking the table directly — drops the cached decision on
     every core: the cross-core TLB shootdown. Remote deliveries are
     counted so the bench can report shootdown traffic. *)
  Page_table.set_hook pt (fun p ->
      Array.iter (fun c -> Tlb.invalidate_page c.tlb p) t.cores;
      if Array.length t.cores > 1 then
        t.shootdowns <- t.shootdowns + Array.length t.cores - 1;
      if Telemetry.Bus.tracing bus then
        Telemetry.Bus.emit bus (Telemetry.Event.Tlb Telemetry.Event.Invalidate));
  t

let mem t = t.mem
let bus t = t.bus

let[@inline] emit_tlb_event t op =
  if t.bus.Telemetry.Bus.tracing then Telemetry.Bus.emit t.bus (Telemetry.Event.Tlb op)
let page_table t = t.pt
let cost t = t.cost
let tlb t = t.cur.tlb
let tlbs t = Array.fold_right (fun c l -> c.tlb :: l) t.cores []
let set_tlb_enabled t b = Array.iter (fun c -> Tlb.set_enabled c.tlb b) t.cores
let npages t = Phys_mem.npages t.mem
let set_handler t h = t.handler <- h
let mpk_enabled t = t.mpk_enabled

let ncores t = Array.length t.cores
let core_id t = t.cost.Cost.attrib.Telemetry.Attrib.cur_core
let shootdown_count t = t.shootdowns

let set_core t c =
  if c < 0 || c >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Cpu.set_core: no core %d (machine has %d)" c (ncores t));
  t.cur <- t.cores.(c);
  Telemetry.Attrib.set_core t.cost.Cost.attrib c

let flush_all_tlbs t =
  Array.iter (fun c -> Tlb.flush c.tlb) t.cores;
  emit_tlb_event t Telemetry.Event.Flush

let set_mpk_enabled t b =
  if b <> t.mpk_enabled then flush_all_tlbs t;
  t.mpk_enabled <- b


let set_exec_follows_access t b =
  if b <> t.exec_follows_access then flush_all_tlbs t;
  t.exec_follows_access <- b

let pkru t = t.cur.pkru

let wrpkru t v =
  Cost.charge_cat t.cost Telemetry.Attrib.Mpk t.cost.model.wrpkru;
  t.wrpkru_count <- t.wrpkru_count + 1;
  (* PKRU is core-local state: writing it flushes only this core's
     cached decisions; the other cores' registers are untouched. *)
  if v <> t.cur.pkru then begin
    Tlb.flush t.cur.tlb;
    emit_tlb_event t Telemetry.Event.Flush
  end;
  if t.bus.Telemetry.Bus.tracing then
    Telemetry.Bus.emit t.bus (Telemetry.Event.Pkru_write { value = v });
  t.cur.pkru <- v

let wrpkru_count t = t.wrpkru_count
let fault_count t = t.fault_count

let core_pkru t c =
  if c < 0 || c >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Cpu.core_pkru: no core %d (machine has %d)" c (ncores t));
  t.cores.(c).pkru

(* Key-virtualisation shootdown: deny [key] in core [c]'s PKRU and drop
   that core's cached decisions. Deliberately charge-free — the key
   multiplexer prices the operation itself (a wrpkru under the Keymux
   attribution category) so eviction cost is billed to the cubicle
   whose fault-in triggered it, not to whoever happens to run on the
   scrubbed core. Remote deliveries count as shootdowns (the IPI). *)
let scrub_pkru_key t c ~key =
  if c < 0 || c >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Cpu.scrub_pkru_key: no core %d (machine has %d)" c (ncores t));
  let core = t.cores.(c) in
  let v = Pkru.deny core.pkru key in
  if v <> core.pkru then begin
    core.pkru <- v;
    Tlb.flush core.tlb;
    if c <> core_id t then t.shootdowns <- t.shootdowns + 1;
    emit_tlb_event t Telemetry.Event.Flush
  end

let denied page (access : Fault.access) key reason =
  Some { Fault.addr = Addr.base_of_page page; access; key; reason }

(* Permission check for one page; returns the fault if denied. *)
let check_page t page (access : Fault.access) : Fault.t option =
  let key = Page_table.key t.pt page in
  if not (Page_table.present t.pt page) then denied page access key Fault.Not_present
  else if not (Page_table.allows t.pt page access) then
    denied page access key Fault.Page_perm
  else if not t.mpk_enabled then None
  else
    match access with
    | Fault.Read ->
        if Pkru.can_read t.cur.pkru key then None
        else denied page access key Fault.Key_perm
    | Fault.Write ->
        if Pkru.can_write t.cur.pkru key then None
        else denied page access key Fault.Key_perm
    | Fault.Exec ->
        (* Stock MPK does not check instruction fetch against PKRU; the
           paper's hardware modification makes access-disable imply
           no-execute. *)
        if t.exec_follows_access && not (Pkru.can_read t.cur.pkru key) then
          denied page access key Fault.Key_perm
        else None

let ev_access : Fault.access -> Telemetry.Event.access = function
  | Fault.Read -> Telemetry.Event.Read
  | Fault.Write -> Telemetry.Event.Write
  | Fault.Exec -> Telemetry.Event.Exec

let ev_reason : Fault.reason -> Telemetry.Event.fault_reason = function
  | Fault.Not_present -> Telemetry.Event.Not_present
  | Fault.Page_perm -> Telemetry.Event.Page_perm
  | Fault.Key_perm -> Telemetry.Event.Key_perm

let deliver_fault t fault =
  t.fault_count <- t.fault_count + 1;
  Cost.charge_cat t.cost Telemetry.Attrib.Fault t.cost.model.fault_trap;
  let resolved =
    match t.handler with
    | Some h when not t.in_handler ->
        t.in_handler <- true;
        let resolved = try h t fault with e -> t.in_handler <- false; raise e in
        t.in_handler <- false;
        resolved
    | _ -> false
  in
  if t.bus.Telemetry.Bus.tracing then
    Telemetry.Bus.emit t.bus
      (Telemetry.Event.Fault
         {
           addr = fault.Fault.addr;
           access = ev_access fault.Fault.access;
           key = fault.Fault.key;
           reason = ev_reason fault.Fault.reason;
           resolved;
         });
  resolved

(* Check one page, delivering faults to the handler and retrying while
   the handler keeps resolving them (a resolved fault may still leave a
   different denial in place, e.g. page-level perms). The TLB skips
   only the re-walk of an already-allowed decision; denials are never
   cached, and no simulated cycles are charged either way, so fault
   behaviour and cycle counts are identical with the TLB off. *)
let rec ensure_page t page access ~addr =
  let tlb = t.cur.tlb in
  if Tlb.probe tlb page access ~hits:1 then emit_tlb_event t Telemetry.Event.Hit
  else begin
    Tlb.record_miss tlb;
    if Tlb.enabled tlb then emit_tlb_event t Telemetry.Event.Miss;
    match check_page t page access with
    | None -> Tlb.fill tlb page access
    | Some f -> (
        let f = { f with Fault.addr } in
        if deliver_fault t f then
          (* Retry once after resolution; if the handler did not actually
             fix the permission this raises. *)
          match check_page t page access with
          | None -> Tlb.fill tlb page access
          | Some f' -> Fault.violation { f' with Fault.addr }
        else Fault.violation f)
  end

(* A range that is not wholly inside memory faults [Not_present] before
   any page is walked. The bound is written [addr > size - len] so that
   no [addr] or [len] can overflow it. *)
and check_range t addr len access =
  if len < 0 then invalid_arg "Cpu.check_range: negative length";
  if addr < 0 || addr > Phys_mem.size t.mem - len then
    Fault.violation
      { Fault.addr; access; key = 0; reason = Fault.Not_present }
  else if len > 0 then begin
    let first = Addr.page_of addr and last = Addr.page_of (addr + len - 1) in
    for p = first to last do
      ensure_page t p access ~addr:(Int.max addr (Addr.base_of_page p))
    done
  end

(* The one permission check of every checked access. If the whole
   access lies in one page whose decision is cached-allowed in the
   current core's TLB, that proves everything [check_range] would
   establish: presence, page perms and key permission (kept current by
   invalidation), and, since a live entry exists only for a page of
   memory, that the access lies inside memory. Otherwise the range is
   walked; an empty access touches no page, so it probes none. After
   [check] returns, [a, a + len) is inside memory. *)
let[@inline] check t a len access =
  if
    len > 0
    && len <= Addr.page_size - Addr.offset a
    && Tlb.probe t.cur.tlb (Addr.page_of a) access ~hits:1
  then emit_tlb_event t Telemetry.Event.Hit
  else check_range t a len access

(* Every checked access below is this check, then one charge, then one
   [Phys_mem] operation. Scalars use the unchecked loads and stores,
   which the check has proven in bounds; bulk copies keep [Phys_mem]'s
   checked copies, which check the host buffer too. *)
let[@inline] checked t a len access =
  check t a len access;
  Cost.charge_mem t.cost len

let read_u8 t a =
  checked t a 1 Fault.Read;
  Phys_mem.unsafe_get_u8 t.mem a

let write_u8 t a v =
  checked t a 1 Fault.Write;
  Phys_mem.unsafe_set_u8 t.mem a v

let read_u16 t a =
  checked t a 2 Fault.Read;
  Phys_mem.unsafe_get_u16 t.mem a

let write_u16 t a v =
  checked t a 2 Fault.Write;
  Phys_mem.unsafe_set_u16 t.mem a v

let read_u32 t a =
  checked t a 4 Fault.Read;
  Phys_mem.unsafe_get_u32 t.mem a

let write_u32 t a v =
  checked t a 4 Fault.Write;
  Phys_mem.unsafe_set_u32 t.mem a v

let read_i64 t a =
  checked t a 8 Fault.Read;
  Phys_mem.unsafe_get_i64 t.mem a

let write_i64 t a v =
  checked t a 8 Fault.Write;
  Phys_mem.unsafe_set_i64 t.mem a v

let read_bytes t a len =
  checked t a len Fault.Read;
  Phys_mem.read_bytes t.mem a len

let write_bytes t a b =
  checked t a (Bytes.length b) Fault.Write;
  Phys_mem.write_bytes t.mem a b

(* The host range of a caller-supplied buffer is validated before any
   check, charge or copy, so a bad range has no simulated effect. *)
let check_host buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Cpu: host buffer range out of bounds"

let read_into t a buf ~pos ~len =
  check_host buf pos len;
  checked t a len Fault.Read;
  Phys_mem.read_into t.mem a buf ~pos ~len

let write_sub t a buf ~pos ~len =
  check_host buf pos len;
  checked t a len Fault.Write;
  Phys_mem.write_sub t.mem a buf ~pos ~len

let check_read t a len = checked t a len Fault.Read
let check_write t a len = checked t a len Fault.Write

let write_string t a s =
  checked t a (String.length s) Fault.Write;
  Phys_mem.write_string t.mem a s

(* A page's later stores cannot be decided differently from its first:
   a store changes no page table, key or PKRU. With the TLB on, the
   first store leaves the page's Write decision cached, so the probe
   counts each later store of the loop as the hit it would be. *)
let store_run t a buf ~pos ~len =
  check_host buf pos len;
  if t.bus.Telemetry.Bus.tracing then
    for j = 0 to len - 1 do
      write_u8 t (a + j) (Bytes.get_uint8 buf (pos + j))
    done
  else begin
    let j = ref 0 in
    while !j < len do
      let addr = a + !j in
      write_u8 t addr (Bytes.get_uint8 buf (pos + !j));
      let later = Int.min (len - !j) (Addr.page_size - Addr.offset addr) - 1 in
      if later > 0 then begin
        ignore (Tlb.probe t.cur.tlb (Addr.page_of addr) Fault.Write ~hits:later);
        Cost.charge_mem_n t.cost later 1;
        Phys_mem.write_sub t.mem (addr + 1) buf ~pos:(pos + !j + 1) ~len:later
      end;
      j := !j + later + 1
    done
  end

(* One [2 * len] charge: two [charge_mem len] would pay [mem_op]
   twice. *)
let memcpy t ~dst ~src ~len =
  check t src len Fault.Read;
  check t dst len Fault.Write;
  Cost.charge_mem t.cost (2 * len);
  Phys_mem.blit t.mem ~src ~dst ~len

let memset t a len c =
  checked t a len Fault.Write;
  Phys_mem.fill t.mem a len c

let fetch t a len = check t a len Fault.Exec

let priv_read_bytes t a len =
  Cost.charge_mem t.cost len;
  Phys_mem.read_bytes t.mem a len

let priv_write_bytes t a b =
  Cost.charge_mem t.cost (Bytes.length b);
  Phys_mem.write_bytes t.mem a b

let priv_read_into t a buf ~pos ~len =
  check_host buf pos len;
  Cost.charge_mem t.cost len;
  Phys_mem.read_into t.mem a buf ~pos ~len

let priv_write_sub t a buf ~pos ~len =
  check_host buf pos len;
  Cost.charge_mem t.cost len;
  Phys_mem.write_sub t.mem a buf ~pos ~len

let priv_write_string t a s =
  Cost.charge_mem t.cost (String.length s);
  Phys_mem.write_string t.mem a s

let priv_write_records t a buf ~size ~count =
  check_host buf 0 (size * count);
  Cost.charge_mem_n t.cost count size;
  Phys_mem.write_sub t.mem a buf ~pos:0 ~len:(size * count)

let priv_fill t a len c =
  Cost.charge_mem t.cost len;
  Phys_mem.fill t.mem a len c

let priv_blit t ~dst ~src ~len =
  Cost.charge_mem t.cost (2 * len);
  Phys_mem.blit t.mem ~src ~dst ~len

let map_page t p perm ~key =
  Page_table.set_present t.pt p true;
  Page_table.set_perm t.pt p perm;
  Page_table.set_key t.pt p key

let unmap_page t p = Page_table.set_present t.pt p false

let set_page_key t p k =
  Cost.charge_cat t.cost Telemetry.Attrib.Mpk t.cost.model.pkey_set;
  Page_table.set_key t.pt p k

let page_key t p = Page_table.key t.pt p
