open Cubicle

(* One receive/transmit ring pair per core (the SO_REUSEPORT-style
   sharding the SMP httpd uses); each ring owns its own DMA staging
   page so concurrent workers never share a slot. Transmitted frames
   go to the ring's wire, one reusable arena, until the host bridge
   drains them: frames back to back in fixed-size chunks, plus each
   frame's length as the device saw it. A frame never straddles two
   chunks. A burst adds chunks as it needs them, so the arena never
   copies itself to grow. *)
type ring = {
  host_to_dev : bytes Queue.t;
  mutable chunks : Bytes.t array;
  mutable cur : int;  (* the chunk being filled *)
  mutable used : int;  (* bytes of [chunks.(cur)] holding frames *)
  mutable lens : int array;  (* frame lengths, transmit order *)
  mutable nframes : int;
  mutable ring_base : int;  (* one page used as the DMA staging slot *)
}

let chunk_bytes = 256 * 1024  (* many MTU frames *)

(* A drain keeps this many chunks (512 KiB) for the next burst and
   drops the rest, so one rare large burst (Fig. 7 sends up to 8 MiB in
   one poll) does not pin its size for the machine's lifetime. *)
let kept_chunks = 2

(* Whether a frame of [len] bytes fits in a chunk already [off] bytes
   full; if not, it starts the next chunk. Transmit and drain both walk
   the wire by this rule. *)
let fits off len = off + len <= chunk_bytes

type state = {
  rings : ring array;
  mutable tx_frames : int;
  mutable rx_frames : int;
}

let nrings state = Array.length state.rings

let charge_frame ctx =
  Hw.Cost.charge (Monitor.cost ctx.Monitor.mon) Sysdefs.nic_frame_cycles

(* The optional third argument selects the ring; the single-ring
   callers keep passing [| buf; len |]. *)
let ring_of (args : int array) = if Array.length args > 2 then args.(2) else 0

(* Make room on [ring]'s wire for one frame of [len] bytes and record
   it; the frame's bytes go at the returned offset of [chunks.(cur)]. *)
let wire_append ring len =
  if not (fits ring.used len) then begin
    ring.cur <- ring.cur + 1;
    ring.used <- 0;
    if ring.cur = Array.length ring.chunks then
      ring.chunks <- Array.append ring.chunks [| Bytes.create chunk_bytes |]
  end;
  if ring.nframes = Array.length ring.lens then begin
    let lens = Array.make (2 * ring.nframes) 0 in
    Array.blit ring.lens 0 lens 0 ring.nframes;
    ring.lens <- lens
  end;
  let pos = ring.used in
  ring.lens.(ring.nframes) <- len;
  ring.nframes <- ring.nframes + 1;
  ring.used <- pos + len;
  pos

(* The DMA engine puts one frame on the wire: the [hdr_len] bytes the
   caller staged in the ring slot, then [plen] payload bytes gathered
   straight from [payload] (none for a plain transmit). *)
let transmit state ctx ring ~hdr_len ~payload ~plen =
  let cpu = ctx.Monitor.cpu in
  let pos = wire_append ring (hdr_len + plen) in
  let chunk = ring.chunks.(ring.cur) in
  Hw.Cpu.priv_read_into cpu ring.ring_base chunk ~pos ~len:hdr_len;
  if plen > 0 then Hw.Cpu.priv_read_into cpu payload chunk ~pos:(pos + hdr_len) ~len:plen;
  charge_frame ctx;
  state.tx_frames <- state.tx_frames + 1;
  Sysdefs.ok

let tx_fn state ctx (args : int array) =
  let buf = args.(0) and len = args.(1) and r = ring_of args in
  if len <= 0 || len > Sysdefs.mtu || r < 0 || r >= nrings state then Sysdefs.einval
  else begin
    let ring = state.rings.(r) in
    (* caller buffer -> ring slot (checked: needs the caller's window),
       then the "DMA engine" moves the slot out to the wire. *)
    Api.memcpy ctx ~dst:ring.ring_base ~src:buf ~len;
    transmit state ctx ring ~hdr_len:len ~payload:0 ~plen:0
  end

(* Scatter-gather transmit for the zero-copy sendfile path: the caller
   hands a tiny header (its own staging page) and a payload span it does
   NOT own — the payload lives in pages the file system granted through
   a forwarded window. The header is copied into the ring slot (checked,
   charged); the payload is only *touched* once per page through the
   checked access path — driving the trap-and-map faults and the
   Window_access telemetry the attribution and replay planes rely on —
   and then gathered off those pages by the DMA engine without any
   charged memcpy. *)
let tx_gather_fn state ctx (args : int array) =
  let hdr = args.(0)
  and hdr_len = args.(1)
  and payload = args.(2)
  and plen = args.(3)
  and r = if Array.length args > 4 then args.(4) else 0 in
  if
    hdr_len <= 0 || plen <= 0
    || hdr_len + plen > Sysdefs.mtu
    || r < 0
    || r >= nrings state
  then Sysdefs.einval
  else begin
    let ring = state.rings.(r) in
    Api.memcpy ctx ~dst:ring.ring_base ~src:hdr ~len:hdr_len;
    (* one checked touch per payload page: window enforcement (and its
       cost) stays exact, the bulk bytes are never copied by the CPU *)
    for p = Hw.Addr.page_of payload to Hw.Addr.page_of (payload + plen - 1) do
      ignore (Api.read_u8 ctx (Int.max payload (Hw.Addr.base_of_page p)))
    done;
    transmit state ctx ring ~hdr_len ~payload ~plen
  end

let rx_fn state ctx (args : int array) =
  let buf = args.(0) and maxlen = args.(1) and r = ring_of args in
  if r < 0 || r >= nrings state then Sysdefs.einval
  else
    let ring = state.rings.(r) in
    if Queue.is_empty ring.host_to_dev then 0
    else begin
      let frame = Queue.pop ring.host_to_dev in
      let len = Bytes.length frame in
      if len > maxlen then Sysdefs.einval
      else begin
        (* wire -> ring slot (DMA), then ring slot -> caller buffer *)
        Hw.Cpu.priv_write_bytes ctx.Monitor.cpu ring.ring_base frame;
        Api.memcpy ctx ~dst:buf ~src:ring.ring_base ~len;
        charge_frame ctx;
        state.rx_frames <- state.rx_frames + 1;
        len
      end
    end

let init state ctx =
  Array.iter
    (fun ring -> ring.ring_base <- Api.alloc_pages ctx 1 ~kind:Mm.Page_meta.Heap)
    state.rings

let make ?(nrings = 1) () =
  if nrings < 1 then invalid_arg "Netdev.make: nrings must be >= 1";
  let state =
    {
      rings =
        Array.init nrings (fun _ ->
            {
              host_to_dev = Queue.create ();
              chunks = [| Bytes.create chunk_bytes |];
              cur = 0;
              used = 0;
              lens = Array.make 64 0;
              nframes = 0;
              ring_base = 0;
            });
      tx_frames = 0;
      rx_frames = 0;
    }
  in
  let comp =
    Builder.component "NETDEV" ~code_ops:640 ~heap_pages:(4 + nrings) ~stack_pages:2
      ~init:(init state)
      ~exports:
        [
          (* both sides copy through the caller's buffer: tx reads it
             into the ring slot, rx fills it from the slot *)
          Builder.export ~derefs:[ 0 ] "netdev_tx" (tx_fn state) [];
          Builder.export ~derefs:[ 0 ] ~writes:[ 0 ] "netdev_rx" (rx_fn state) [];
          (* gather tx dereferences both the header (arg 0) and the
             granted payload span (arg 2) *)
          Builder.export ~derefs:[ 0; 2 ] "netdev_tx_gather" (tx_gather_fn state) [];
        ]
  in
  (state, comp)

let host_inject ?(ring = 0) state frame =
  if ring < 0 || ring >= nrings state then invalid_arg "Netdev.host_inject: no such ring";
  let len = Bytes.length frame in
  if len < Sysdefs.frame_header || len > Sysdefs.mtu then
    invalid_arg
      (Printf.sprintf "Netdev.host_inject: %d-byte frame (the device carries %d to %d)" len
         Sysdefs.frame_header Sysdefs.mtu);
  Queue.push frame state.rings.(ring).host_to_dev

let clear_wire ring =
  if Array.length ring.chunks > kept_chunks then
    ring.chunks <- Array.sub ring.chunks 0 kept_chunks;
  ring.cur <- 0;
  ring.used <- 0;
  ring.nframes <- 0

let host_drain state f =
  match
    Array.iter
      (fun ring ->
        let c = ref 0 and off = ref 0 in
        for i = 0 to ring.nframes - 1 do
          let len = ring.lens.(i) in
          if not (fits !off len) then begin
            incr c;
            off := 0
          end;
          f ring.chunks.(!c) !off len;
          off := !off + len
        done;
        clear_wire ring)
      state.rings
  with
  | () -> ()
  | exception e ->
      (* the wire is emptied either way, so no frame is handed over twice *)
      Array.iter clear_wire state.rings;
      raise e

let host_collect state =
  let acc = ref [] in
  host_drain state (fun wire off len -> acc := Bytes.sub wire off len :: !acc);
  List.rev !acc

let rx_frames state = state.rx_frames
