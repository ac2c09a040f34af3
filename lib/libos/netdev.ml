open Cubicle

(* One receive/transmit ring pair per core (the SO_REUSEPORT-style
   sharding the SMP httpd uses); each ring owns its own DMA staging
   page so concurrent workers never share a slot. *)
type ring = {
  host_to_dev : bytes Queue.t;
  dev_to_host : bytes Queue.t;
  mutable ring_base : int;  (* one page used as the DMA staging slot *)
}

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

let tx_fn state ctx (args : int array) =
  let buf = args.(0) and len = args.(1) and r = ring_of args in
  if len <= 0 || len > Sysdefs.mtu || r < 0 || r >= nrings state then Sysdefs.einval
  else begin
    let ring = state.rings.(r) in
    (* caller buffer -> ring slot (checked: needs the caller's window),
       then the "DMA engine" moves the slot out to the wire. *)
    Api.memcpy ctx ~dst:ring.ring_base ~src:buf ~len;
    let frame = Hw.Cpu.priv_read_bytes ctx.Monitor.cpu ring.ring_base len in
    Queue.push frame ring.dev_to_host;
    charge_frame ctx;
    state.tx_frames <- state.tx_frames + 1;
    Sysdefs.ok
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
      ignore (Api.read_u8 ctx (max payload (Hw.Addr.base_of_page p)))
    done;
    let frame = Bytes.create (hdr_len + plen) in
    Hw.Cpu.priv_read_into ctx.Monitor.cpu ring.ring_base frame ~pos:0 ~len:hdr_len;
    Hw.Cpu.priv_read_into ctx.Monitor.cpu payload frame ~pos:hdr_len ~len:plen;
    Queue.push frame ring.dev_to_host;
    charge_frame ctx;
    state.tx_frames <- state.tx_frames + 1;
    Sysdefs.ok
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
            { host_to_dev = Queue.create (); dev_to_host = Queue.create (); ring_base = 0 });
      tx_frames = 0;
      rx_frames = 0;
    }
  in
  let comp =
    Builder.component "NETDEV" ~code_ops:640 ~heap_pages:(4 + nrings) ~stack_pages:2
      ~init:(init state)
      ~iface:
        [
          (* both sides copy through the caller's buffer: tx reads it
             into the ring slot, rx fills it from the slot *)
          Iface.fundecl ~derefs:[ 0 ] "netdev_tx" [];
          Iface.fundecl ~derefs:[ 0 ] ~writes:[ 0 ] "netdev_rx" [];
          (* gather tx dereferences both the header (arg 0) and the
             granted payload span (arg 2) *)
          Iface.fundecl ~derefs:[ 0; 2 ] "netdev_tx_gather" [];
        ]
      ~exports:
        [
          { Monitor.sym = "netdev_tx"; fn = tx_fn state; stack_bytes = 0 };
          { Monitor.sym = "netdev_rx"; fn = rx_fn state; stack_bytes = 0 };
          { Monitor.sym = "netdev_tx_gather"; fn = tx_gather_fn state; stack_bytes = 0 };
        ]
  in
  (state, comp)

let host_inject ?(ring = 0) state frame =
  if ring < 0 || ring >= nrings state then invalid_arg "Netdev.host_inject: no such ring";
  Queue.push frame state.rings.(ring).host_to_dev

let host_collect state =
  let acc = ref [] in
  Array.iter
    (fun ring ->
      while not (Queue.is_empty ring.dev_to_host) do
        acc := Queue.pop ring.dev_to_host :: !acc
      done)
    state.rings;
  List.rev !acc

let rx_frames state = state.rx_frames
