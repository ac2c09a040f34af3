(** The deployment configurations of §6.5 (Figures 9 and 10), all
    exposing the same {!Minidb.Os_iface.t} so the identical database
    code runs on each:

    - [Linux]: native host baseline (syscall per op);
    - [Unikraft]: the library OS, unprotected (protection [None_]);
    - [Genode3 k]: SQLite | TIMER | CORE(VFS+RAMFS) over kernel [k] —
      one RPC per file system operation (Figure 9a);
    - [Genode4 k]: RAMFS split out of CORE — the CORE↔RAMFS boundary
      uses Genode's packet-stream protocol (an RPC plus a completion
      signal per 4 KiB packet), which is what makes the separation so
      expensive (Figure 9b);
    - [Cubicle3] / [Cubicle4]: CubicleOS with VFSCORE+RAMFS merged or
      separate, full protection. *)

type config =
  | Linux
  | Unikraft
  | Genode3 of Kernel.t
  | Genode4 of Kernel.t
  | Cubicle3
  | Cubicle4

val config_name : config -> string

type instance = { os : Minidb.Os_iface.t; mon : Cubicle.Monitor.t }

val make : ?mem_bytes:int -> config -> instance
(** A fresh system for the configuration. *)

val speedtest_run : ?n:int -> instance -> (Minidb.Speedtest.query * int) list
(** Run the speedtest suite on an existing instance (so the caller can
    attach telemetry — a latency sink, tracing — to [inst.mon]'s bus
    first). *)

val speedtest_total_cycles : ?n:int -> config -> int
(** Run the whole speedtest suite on a fresh instance and return total
    simulated cycles. *)
