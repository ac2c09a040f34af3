open Cubicle

type t = {
  ctx : Monitor.ctx;
  kern : Kernel.t;
  buf : int;  (* one-page message buffer *)
  mutable rpcs : int;
}

let msg_buf_size = Hw.Addr.page_size

let create ctx kern =
  { ctx; kern; buf = Api.malloc_page_aligned ctx msg_buf_size; rpcs = 0 }

let rpc_count t = t.rpcs

let cost t = Monitor.cost t.ctx.Monitor.mon

let charge_copy t len =
  (* payload larger than the message buffer is sent in bursts *)
  Hw.Cost.charge_mem (cost t) (max 0 len)

(* An RPC round trip crosses from the client component into the OS
   service and back — modelled for the latency plane as an edge into
   the monitor cubicle (the "kernel side"), so `fig10 --latency` can
   compare RPC crossing latencies against trampoline edges. *)
let bus t = Monitor.bus t.ctx.Monitor.mon

let call t ~payload f =
  t.rpcs <- t.rpcs + 1;
  Telemetry.Bus.observe_call (bus t) ~caller:t.ctx.Monitor.self
    ~callee:Monitor.monitor_cid;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Bus.observe_return (bus t) ~caller:t.ctx.Monitor.self
        ~callee:Monitor.monitor_cid)
    (fun () ->
      charge_copy t payload;
      Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Ipc t.kern.Kernel.rpc_cycles;
      let r = f () in
      charge_copy t payload;
      r)

let signal t = Hw.Cost.charge_cat (cost t) Telemetry.Attrib.Ipc t.kern.Kernel.signal_cycles

let copy_in_sub t data ~pos ~len =
  let n = min len msg_buf_size in
  Hw.Cpu.priv_write_sub t.ctx.Monitor.cpu t.buf data ~pos ~len:n;
  if len > n then charge_copy t (len - n)

let copy_in t data = copy_in_sub t data ~pos:0 ~len:(Bytes.length data)

let copy_out t len =
  let n = min len msg_buf_size in
  let b = Hw.Cpu.priv_read_bytes t.ctx.Monitor.cpu t.buf n in
  if len > n then charge_copy t (len - n);
  b
