(* Every symbol with a thunk has one thunk for good: a respawned
   component's symbols reach the same thunks. A cubicle's guard table,
   kept on its monitor record, pairs each thunk it may enter with its
   guard entry there: one pair per call edge. Guard entries never sit at
   address 0: page 0 belongs to the monitor. *)
module Str_tbl = Hashtbl.Make (String)

type t = {
  mon : Monitor.t;
  thunks : int Str_tbl.t;  (* symbol -> its thunk's address *)
  waiting : Types.cid list Str_tbl.t;
      (* a symbol with no thunk yet -> the live cubicles whose summaries
         call it: they get their entries when it gets its thunk *)
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
   respawning a torn-down component reuses its old thunks. Returns the
   syms that got one. *)
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
    List.iteri
      (fun i sym -> Str_tbl.replace t.thunks sym (thunk_base + (i * thunk_size)))
      fresh
  end;
  fresh

(* The guard entry address for (cid, thunk address), 0 if there is
   none. *)
let entry_in guards th =
  let rec go = function
    | [] -> 0
    | (thunk, entry) :: rest -> if thunk = th then entry else go rest
  in
  go guards

(* Guard pages: in the calling cubicle's own pages so it can fetch
   them. Each batch of new entries gets its own page run; the run is
   owned by the cubicle, so destroy_cubicle releases it with the rest
   of its memory, and the guard table with the rest of its record.
   [thunks] are the candidate thunk addresses, in layout order; those
   [cid] already has an entry for are skipped, and a cubicle with no
   new entry gets no page. The batch is assembled in [guard_buf] and
   copied in once, charged as one 16-byte privileged write per entry. *)
let write_guards t cid thunks =
  let old = Monitor.guards t.mon cid in
  match List.filter (fun th -> entry_in old th = 0) thunks with
  | [] -> ()
  | fresh ->
      let n = List.length fresh in
      let cpu = Monitor.cpu t.mon in
      let len = n * guard_entry_size in
      let gpages = Hw.Addr.pages_for len in
      let gbase =
        Monitor.alloc_owned_pages t.mon cid gpages ~kind:Mm.Page_meta.Code
          ~perm:Hw.Page_table.perm_rw
      in
      assert (gbase <> 0);
      if Bytes.length t.guard_buf < len then
        t.guard_buf <- Bytes.create (max len (2 * Bytes.length t.guard_buf));
      let buf = t.guard_buf in
      let guards =
        List.fold_left
          (fun (off, acc) th ->
            let addr = gbase + off in
            Bytes.blit guard_template 0 buf off guard_entry_size;
            Bytes.set_int32_le buf (off + jmp_disp_off) (Int32.of_int (th - addr));
            (off + guard_entry_size, (th, addr) :: acc))
          (0, old) fresh
        |> snd
      in
      Monitor.set_guards t.mon cid guards;
      Hw.Cpu.priv_write_records cpu gbase buf ~size:guard_entry_size ~count:n;
      let gfirst = Hw.Addr.page_of gbase in
      for p = gfirst to gfirst + gpages - 1 do
        Hw.Page_table.set_perm (Hw.Cpu.page_table cpu) p Hw.Page_table.perm_x
      done

let isolated t cid = Monitor.cubicle_kind t.mon cid = Types.Isolated

let create mon =
  { mon; thunks = Str_tbl.create 16; waiting = Str_tbl.create 16; guard_buf = Bytes.empty }

(* Whether the live cubicle [cid] is one whose summary calls [sym]: a
   waiting cid may since have been recycled by another component. *)
let declares t cid sym =
  Monitor.is_live t.mon cid
  && isolated t cid
  && match Monitor.iface t.mon cid with
     | Some iface -> List.mem sym (Iface.calls iface)
     | None -> false

(* The symbols that just got their first thunk: each live cubicle
   waiting for some of them gets its entries for those, in one batch. *)
let guard_waiting t fresh =
  let waiting =
    List.map (fun sym -> (sym, Option.value (Str_tbl.find_opt t.waiting sym) ~default:[])) fresh
  in
  List.iter (Str_tbl.remove t.waiting) fresh;
  List.iter
    (fun cid ->
      write_guards t cid
        (List.filter_map
           (fun (sym, cids) ->
             if List.mem cid cids && declares t cid sym then Some (Str_tbl.find t.thunks sym)
             else None)
           waiting))
    (List.sort_uniq Int.compare (List.concat_map snd waiting))

let extend t ~syms = guard_waiting t (alloc_thunks t syms)

let guard_calls t cid calls =
  if isolated t cid then begin
    let thunked, missing = List.partition (Str_tbl.mem t.thunks) calls in
    write_guards t cid (List.map (Str_tbl.find t.thunks) thunked);
    List.iter
      (fun sym ->
        let others =
          List.filter
            (fun c -> c <> cid && Monitor.is_live t.mon c)
            (Option.value (Str_tbl.find_opt t.waiting sym) ~default:[])
        in
        Str_tbl.replace t.waiting sym (cid :: others))
      missing
  end

let syms t = List.sort String.compare (List.of_seq (Str_tbl.to_seq_keys t.thunks))

let thunk_addr t sym =
  match Str_tbl.find_opt t.thunks sym with
  | Some th -> th
  | None -> raise (Types.Denied (No_thunk sym))

(* The guard entry address for (cid, sym), 0 if there is none. *)
let find_guard t cid sym =
  match Str_tbl.find_opt t.thunks sym with
  | Some th -> entry_in (Monitor.guards t.mon cid) th
  | None -> 0

let guard_addr t cid sym =
  match find_guard t cid sym with
  | 0 -> raise (Types.Denied (No_guard { cid; sym }))
  | a -> a

let has_thunk t sym = Str_tbl.mem t.thunks sym
let has_guard t cid sym = find_guard t cid sym <> 0
let guard_entries t cid = List.length (Monitor.guards t.mon cid)

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
