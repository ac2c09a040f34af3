type model = {
  mem_word : int;
  mem_op : int;
  wrpkru : int;
  rdpkru : int;
  pkey_set : int;
  key_reassign : int;
  fault_trap : int;
  acl_check : int;
  tramp_fixed : int;
  call_direct : int;
  stack_switch : int;
  window_op : int;
  syscall : int;
  unikraft_op : int;
}

let default_model =
  {
    mem_word = 1;
    mem_op = 2;
    wrpkru = 20;
    rdpkru = 1;
    pkey_set = 1100;
    key_reassign = 1100;
    fault_trap = 800;
    acl_check = 600;
    tramp_fixed = 40;
    call_direct = 5;
    stack_switch = 30;
    window_op = 30;
    syscall = 700;
    unikraft_op = 6000;
  }

type t = {
  mutable cycles : int;
  per_core : int array;  (* per-core share of [cycles]; always sums to it *)
  model : model;
  attrib : Telemetry.Attrib.t;  (* also the current core *)
}

let create ?(model = default_model) ?(ncores = 1) () =
  let attrib = Telemetry.Attrib.create ~ncores () in
  { cycles = 0; per_core = Array.make ncores 0; model; attrib }

let reset t =
  t.cycles <- 0;
  Array.fill t.per_core 0 (Array.length t.per_core) 0;
  Telemetry.Attrib.reset t.attrib

let attrib t = t.attrib

let core_cycles t core = if core >= 0 && core < Array.length t.per_core then t.per_core.(core) else 0

(* [per_core] and the attribution table are sized from the same
   [ncores] and [Attrib.set_core] rejects a core outside it, so the
   unsafe accesses below stay in bounds. *)
let bump t n =
  t.cycles <- t.cycles + n;
  let c = t.attrib.Telemetry.Attrib.cur_core in
  Array.unsafe_set t.per_core c (Array.unsafe_get t.per_core c + n)

let charge_cat t cat n =
  bump t n;
  Telemetry.Attrib.charge t.attrib cat n

let charge t n = charge_cat t Telemetry.Attrib.Other n

let mem_cycles t len = t.model.mem_op + (((len + 7) lsr 3) * t.model.mem_word)

let charge_memcpy t c =
  bump t c;
  Telemetry.Attrib.charge t.attrib Telemetry.Attrib.Memcpy c

let charge_mem t len = charge_memcpy t (mem_cycles t len)
let charge_mem_n t n len = charge_memcpy t (n * mem_cycles t len)

let cycles t = t.cycles
let cycles_per_ms = 2.2e6
let cycles_per_us = cycles_per_ms /. 1000.
let to_ms c = float_of_int c /. cycles_per_ms
let to_us c = float_of_int c /. cycles_per_us
