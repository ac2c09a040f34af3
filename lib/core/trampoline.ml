(* Every symbol with a thunk gets a slot, in thunk creation order; a
   cubicle's guard table, kept on its monitor record, is an array
   indexed by slot holding the guard entry address, 0 for none. Guard
   entries never sit at address 0: page 0 belongs to the monitor. Slots
   only grow, so a table shorter than the slot count simply lacks the
   newer symbols. *)
type thunk = { sym : string; slot : int; addr : int }

module Str_tbl = Hashtbl.Make (String)

type t = {
  mon : Monitor.t;
  thunks : thunk Str_tbl.t;
  mutable sorted : thunk array option;
      (* every thunk in symbol order, until a thunk is added: the order
         a fresh cubicle's guard entries are laid out in *)
  mutable guard_buf : Bytes.t;
      (* where a batch of guard entries is assembled before its one
         copy; grown to the largest batch and reused *)
}

(* One thunk: permission switch, the call into the callee's entry point
   (displacement is symbolic here), the switch back, return. *)
let thunk_code = Hw.Instr.assemble [ Wrpkru; Call 0; Wrpkru; Ret ]
let thunk_size = Bytes.length thunk_code

(* One guard entry: enable the monitor tag, jump to the thunk, then
   no-op padding so a misaligned entry runs into the trap. Entries
   differ only in the jump displacement, so the entry is assembled once
   and each copy of it gets its own displacement patched in. *)
let guard_entry_size = 16

let guard_template =
  let body = Hw.Instr.assemble [ Wrpkru; Jmp 0; Halt ] in
  let padded = Bytes.make guard_entry_size '\xF4' (* halt *) in
  Bytes.blit body 0 padded 0 (Bytes.length body);
  padded

let jmp_disp_off = Hw.Instr.length Wrpkru + 1

(* Thunk pages: signed by the trusted builder, owned by the monitor's
   cubicle, execute-only. Only syms without a thunk get one, so
   respawning a torn-down component reuses its old thunks. *)
let alloc_thunks t syms =
  let fresh = List.filter (fun s -> not (Str_tbl.mem t.thunks s)) syms in
  if fresh <> [] then begin
    let nsyms = List.length fresh in
    let thunk_bytes = Bytes.create (nsyms * thunk_size) in
    List.iteri
      (fun i _ -> Bytes.blit thunk_code 0 thunk_bytes (i * thunk_size) thunk_size)
      fresh;
    let cpu = Monitor.cpu t.mon in
    let npages = Hw.Addr.pages_for (Bytes.length thunk_bytes) in
    let thunk_base =
      Monitor.alloc_owned_pages t.mon Monitor.monitor_cid npages ~kind:Mm.Page_meta.Code
        ~perm:Hw.Page_table.perm_rw
    in
    Hw.Cpu.priv_write_bytes cpu thunk_base thunk_bytes;
    let first = Hw.Addr.page_of thunk_base in
    for p = first to first + npages - 1 do
      Hw.Page_table.set_perm (Hw.Cpu.page_table cpu) p Hw.Page_table.perm_x
    done;
    let first_slot = Str_tbl.length t.thunks in
    List.iteri
      (fun i sym ->
        Str_tbl.replace t.thunks sym
          { sym; slot = first_slot + i; addr = thunk_base + (i * thunk_size) })
      fresh;
    t.sorted <- None
  end

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.of_seq (Str_tbl.to_seq_values t.thunks) in
      Array.sort (fun a b -> String.compare a.sym b.sym) a;
      t.sorted <- Some a;
      a

(* [cid]'s guard table, grown to cover every slot. *)
let guards_of t cid =
  let old = Monitor.guards t.mon cid in
  let nslots = Str_tbl.length t.thunks in
  if Array.length old = nslots then old
  else begin
    let g = Array.make nslots 0 in
    Array.blit old 0 g 0 (Array.length old);
    Monitor.set_guards t.mon cid g;
    g
  end

(* Guard pages: in the calling cubicle's own pages so it can fetch
   them. Each batch of new entries gets its own page run; the run is
   owned by the cubicle, so destroy_cubicle releases it with the rest
   of its memory, and the guard table with the rest of its record.
   [thunks] are the candidates, in layout order; those [cid] already
   has an entry for are skipped. The batch is assembled in [guard_buf]
   and copied in once, charged as one 16-byte privileged write per
   entry. *)
let write_guards t cid thunks =
  let g = guards_of t cid in
  let nfresh = ref 0 in
  Array.iter (fun th -> if g.(th.slot) = 0 then incr nfresh) thunks;
  if !nfresh > 0 then begin
    let cpu = Monitor.cpu t.mon in
    let gpages = Hw.Addr.pages_for (!nfresh * guard_entry_size) in
    let gbase =
      Monitor.alloc_owned_pages t.mon cid gpages ~kind:Mm.Page_meta.Code
        ~perm:Hw.Page_table.perm_rw
    in
    assert (gbase <> 0);
    let len = !nfresh * guard_entry_size in
    if Bytes.length t.guard_buf < len then
      t.guard_buf <- Bytes.create (max len (2 * Bytes.length t.guard_buf));
    let buf = t.guard_buf in
    let off = ref 0 in
    Array.iter
      (fun thunk ->
        if g.(thunk.slot) = 0 then begin
          let addr = gbase + !off in
          Bytes.blit guard_template 0 buf !off guard_entry_size;
          Bytes.set_int32_le buf (!off + jmp_disp_off) (Int32.of_int (thunk.addr - addr));
          g.(thunk.slot) <- addr;
          off := !off + guard_entry_size
        end)
      thunks;
    Hw.Cpu.priv_write_records cpu gbase buf ~size:guard_entry_size ~count:!nfresh;
    let gfirst = Hw.Addr.page_of gbase in
    for p = gfirst to gfirst + gpages - 1 do
      Hw.Page_table.set_perm (Hw.Cpu.page_table cpu) p Hw.Page_table.perm_x
    done
  end

(* Guard entries for [thunks] in each listed isolated cubicle. *)
let guard t thunks ~cids =
  List.iter
    (fun cid ->
      if Monitor.cubicle_kind t.mon cid = Types.Isolated then write_guards t cid thunks)
    cids

let create mon =
  { mon; thunks = Str_tbl.create 16; sorted = None; guard_buf = Bytes.empty }

let extend t ~syms ~cids =
  alloc_thunks t syms;
  guard t (Array.of_list (List.map (Str_tbl.find t.thunks) syms)) ~cids

let syms t = Array.to_list (Array.map (fun th -> th.sym) (sorted t))
let guard_all t ~cids = guard t (sorted t) ~cids

let thunk_addr t sym =
  match Str_tbl.find_opt t.thunks sym with
  | Some th -> th.addr
  | None -> raise (Types.Denied (No_thunk sym))

(* The guard entry address for (cid, sym), 0 if there is none. *)
let find_guard t cid sym =
  let g = Monitor.guards t.mon cid in
  match Str_tbl.find_opt t.thunks sym with
  | Some th when th.slot < Array.length g -> g.(th.slot)
  | _ -> 0

let guard_addr t cid sym =
  match find_guard t cid sym with
  | 0 -> raise (Types.Denied (No_guard { cid; sym }))
  | a -> a

let has_thunk t sym = Str_tbl.mem t.thunks sym
let has_guard t cid sym = find_guard t cid sym <> 0

(* Run [f] with the machine configured as if [cid] were executing:
   PKRU narrowed to the cubicle's own tags. *)
let as_cubicle mon cid f =
  let cpu = Monitor.cpu mon in
  if Hw.Cpu.mpk_enabled cpu then begin
    let saved = Hw.Cpu.pkru cpu in
    let key = Monitor.cubicle_key mon cid in
    Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ key; Monitor.shared_key ]);
    Fun.protect ~finally:(fun () -> Hw.Cpu.wrpkru cpu saved) f
  end
  else f ()

let enter_via_guard t ~caller sym =
  let addr = guard_addr t caller sym in
  let b = Monitor.bus t.mon in
  if b.Telemetry.Bus.tracing then
    Telemetry.Bus.emit b (Telemetry.Event.Guard_fetch { cid = caller; sym });
  (* The guard entry lives in the caller's pages: fetching it is legal.
     Its wrpkru then authorises the jump into the monitor-owned thunk. *)
  as_cubicle t.mon caller (fun () -> Hw.Cpu.fetch (Monitor.cpu t.mon) addr 4)

let rogue_fetch mon ~as_cubicle:cid ~addr =
  as_cubicle mon cid (fun () -> Hw.Cpu.fetch (Monitor.cpu mon) addr 4)
