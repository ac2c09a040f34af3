(** Cycle cost model for the simulated machine.

    All performance results in the benchmark harness are simulated cycle
    counts accumulated here. The constants are calibrated against the
    figures the paper itself cites (libmpk numbers for [wrpkru] and key
    assignment; see EXPERIMENTS.md for the calibration of the IPC costs
    used by the microkernel baselines). *)

type model = {
  mem_word : int;  (** per 8 bytes moved by a load/store/blit *)
  mem_op : int;  (** fixed cost per memory operation *)
  wrpkru : int;  (** writing the PKRU register (paper: ~20 cycles) *)
  rdpkru : int;  (** reading the PKRU register *)
  pkey_set : int;  (** assigning an MPK key to a page (paper: >1100 cycles) *)
  key_reassign : int;
      (** virtual-key fault-in: rebinding a cubicle's virtual key to a
          physical MPK tag (libmpk's pkey_mprotect-based reassignment,
          ≈1100 cycles per the figure the paper cites) — charged once
          per fault-in on top of the per-page retag cost *)
  fault_trap : int;  (** delivering a protection fault to a user handler *)
  acl_check : int;
      (** walking the owner's window descriptor arrays and checking the
          cubicle bitmask during trap-and-map (full CubicleOS only; the
          "w/o ACLs" configuration maps without checking) *)
  tramp_fixed : int;  (** fixed cost of a cross-cubicle call trampoline *)
  call_direct : int;  (** a plain function call (shared cubicle / baseline) *)
  stack_switch : int;  (** switching per-cubicle stacks in a trampoline *)
  window_op : int;  (** one window ACL operation (add/open/close) *)
  syscall : int;  (** a host-OS (Linux) system call round trip *)
  unikraft_op : int;
      (** extra per-OS-operation platform inefficiency of the library OS
          running in user mode (linuxu platform), relative to native Linux *)
}

val default_model : model

type t = {
  mutable cycles : int;
  per_core : int array;
      (** per-core cycle counters: each charge lands on the current
          core's counter as well as [cycles], so the per-core counters
          always sum exactly to [cycles]. On an N-core run the makespan
          is the {e maximum} per-core counter, which is what the SMP
          scaling curve measures. *)
  model : model;
  attrib : Telemetry.Attrib.t;
      (** attribution sink and execution context: every charge is
          billed to the currently executing cubicle under a cost
          category, so the per-cubicle table always sums to [cycles],
          and lands on the per-core counter of [attrib.cur_core]. The
          monitor moves the current cubicle, [Hw.Cpu.set_core] the
          current core. *)
}

val create : ?model:model -> ?ncores:int -> unit -> t
(** [ncores] (default 1) sizes the per-core counters and the
    attribution table's core planes once. *)

val reset : t -> unit
(** Also resets the per-core counters and the attribution table (their
    totals must track [cycles]). *)

val attrib : t -> Telemetry.Attrib.t

val core_cycles : t -> int -> int

val charge : t -> int -> unit
(** [charge t cycles] adds raw cycles, attributed to category
    [Other]. *)

val charge_cat : t -> Telemetry.Attrib.category -> int -> unit
(** [charge_cat t cat cycles] adds raw cycles attributed to [cat]. *)

val charge_mem : t -> int -> unit
(** [charge_mem t len] charges for moving [len] bytes (category
    [Memcpy]). Not linear in [len]: each move pays a fixed [mem_op]. *)

val charge_mem_n : t -> int -> int -> unit
(** [charge_mem_n t n len] is [n] calls of [charge_mem t len], billed
    as one charge. *)

val cycles : t -> int

val cycles_per_us : float
(** Conversion used when reporting latencies: the paper's testbed is a
    2.2 GHz Xeon, so 2200 cycles per microsecond. The trace exporters
    take it. *)

val to_ms : int -> float
val to_us : int -> float
