(* The simulated MMU the plain way: a page-table array, one PKRU per
   core and a byte array, with no TLB and no fast path. Every access is
   checked byte by byte against the current core's PKRU and the page
   table, exactly as the MPK rule states it, with the paper's change
   that a key with access disabled also loses execute when
   [exec_follows_access] is on. [Hw.Cpu] must give every access the
   same verdict, fault record and memory effect. *)

type t = {
  size : int;
  present : bool array;
  perm : Hw.Page_table.perm array;
  key : int array;
  pkru : int array;  (* per core: bit 2k = access disable, 2k+1 = write disable *)
  mutable core : int;
  mpk : bool;
  exec_follows_access : bool;
  mem : bytes;
  mutable handler : t -> Hw.Fault.t -> bool;
  mutable faults : int;  (* faults delivered to the handler *)
  mutable probes : int;  (* page lookups: one per page an access walks *)
}

let create ~npages ~ncores ~mpk ~exec_follows_access =
  {
    size = npages * Hw.Addr.page_size;
    present = Array.make npages false;
    perm = Array.make npages Hw.Page_table.{ r = false; w = false; x = false };
    key = Array.make npages 0;
    pkru = Array.make ncores 0;
    core = 0;
    mpk;
    exec_follows_access;
    mem = Bytes.make (npages * Hw.Addr.page_size) '\000';
    handler = (fun _ _ -> false);
    faults = 0;
    probes = 0;
  }

let map_page t p perm ~key =
  t.present.(p) <- true;
  t.perm.(p) <- perm;
  t.key.(p) <- key

let unmap_page t p = t.present.(p) <- false
let set_perm t p perm = t.perm.(p) <- perm
let set_page_key t p k = t.key.(p) <- k
let wrpkru t v = t.pkru.(t.core) <- v
let scrub_pkru_key t c ~key = t.pkru.(c) <- t.pkru.(c) lor (0b11 lsl (2 * key))
let set_core t c = t.core <- c

(* Why [access] to [page] is refused, if it is. *)
let denial t page (access : Hw.Fault.access) =
  let k = t.key.(page) and pkru = t.pkru.(t.core) in
  let access_disabled = pkru land (1 lsl (2 * k)) <> 0 in
  let write_disabled = pkru land (1 lsl ((2 * k) + 1)) <> 0 in
  let perm = t.perm.(page) in
  if not t.present.(page) then Some Hw.Fault.Not_present
  else if not (match access with Read -> perm.r | Write -> perm.w | Exec -> perm.x) then
    Some Hw.Fault.Page_perm
  else if not t.mpk then None
  else
    match access with
    | Read when access_disabled -> Some Hw.Fault.Key_perm
    | Write when access_disabled || write_disabled -> Some Hw.Fault.Key_perm
    | Exec when t.exec_follows_access && access_disabled -> Some Hw.Fault.Key_perm
    | _ -> None

let fault t addr access page reason =
  { Hw.Fault.addr; access; key = t.key.(page); reason }

(* Check [addr, addr + len) byte by byte. A range not wholly in memory
   faults [Not_present] with key 0 and reaches no handler. A refused
   byte's fault goes to the handler; if it says it resolved the fault,
   the byte is checked once more, and a second refusal raises. *)
let check t addr len access =
  if len < 0 then invalid_arg "Ref_machine: negative length";
  if addr < 0 || addr > t.size || len > t.size - addr then
    raise (Hw.Fault.Violation ({ addr; access; key = 0; reason = Not_present }, "ref"));
  let walked = ref (-1) in
  for b = addr to addr + len - 1 do
    let page = b / Hw.Addr.page_size in
    if page <> !walked then begin
      t.probes <- t.probes + 1;
      walked := page
    end;
    match denial t page access with
    | None -> ()
    | Some reason -> (
        let f = fault t b access page reason in
        t.faults <- t.faults + 1;
        if not (t.handler t f) then raise (Hw.Fault.Violation (f, "ref"));
        match denial t page access with
        | None -> ()
        | Some reason -> raise (Hw.Fault.Violation (fault t b access page reason, "ref")))
  done

let check_host buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Ref_machine: host range"

let read t addr len =
  check t addr len Read;
  Bytes.sub_string t.mem addr len

let write t addr s =
  check t addr (String.length s) Write;
  Bytes.blit_string s 0 t.mem addr (String.length s)

let read_into t addr buf ~pos ~len =
  check_host buf pos len;
  Bytes.blit_string (read t addr len) 0 buf pos len

let write_sub t addr buf ~pos ~len =
  check_host buf pos len;
  write t addr (Bytes.sub_string buf pos len)

(* One single-byte store after another: a refusal leaves the bytes
   before it stored. *)
let store_run t addr buf ~pos ~len =
  check_host buf pos len;
  for j = 0 to len - 1 do
    write t (addr + j) (Bytes.sub_string buf (pos + j) 1)
  done

let memcpy t ~dst ~src ~len =
  check t src len Read;
  check t dst len Write;
  Bytes.blit t.mem src t.mem dst len

let memset t addr len c =
  check t addr len Write;
  Bytes.fill t.mem addr len c
