(** UKSCHED: the cubicle thread scheduler.

    Threads are multiplexed onto the machine's simulated cores: each
    core has its own run queue, the cores take turns running one slice
    each ([Hw.Cpu.set_core] swaps the per-core PKRU/TLB and routes
    cycle charges to that core's counter), and an idle core steals the
    oldest thread from the most loaded queue, migrating it. On a
    single-core machine this degenerates to Unikraft's model — the one
    the paper inherits (§8: "user-level threads are multiplexed onto a
    single host thread") — with strict round-robin rotation.

    Every thread belongs to a cubicle; the scheduler enters the
    thread's cubicle ({!Cubicle.Monitor.run_as}) around every slice, so
    each user-level thread runs under its own PKRU view — the
    per-thread access permissions MPK provides (§2.2). Yielding
    suspends the thread via an OCaml effect and rotates to the next
    runnable thread. *)

type t
type tid = int

val create : ?ncores:int -> Cubicle.Monitor.t -> t
(** [ncores] defaults to the machine's core count ([Hw.Cpu.ncores]) and
    may not exceed it. Every yield rotates (exact round-robin).
    Preemption happens at yield points: a thread that never yields
    keeps its core, as under any cooperative model. *)

val spawn : ?core:int -> t -> Cubicle.Types.cid -> (unit -> unit) -> tid
(** Queue a thread that will run inside the given cubicle, on [core]'s
    run queue (default: the least-loaded core). The placement is only
    initial — an idle core may steal the thread before its first
    slice. *)

val yield : unit -> unit
(** Inside a thread: offer up the processor. Calling it outside a
    scheduler thread raises [Invalid_argument]. *)

val run : t -> unit
(** Run until every thread has finished. A thread that raises stops the
    scheduler with its exception after the remaining threads are
    parked back in their queues; the machine is switched back to the
    core it entered on. *)

val alive : t -> int
(** Threads not yet finished, across all run queues. *)

val context_switches : t -> int

val migrations : t -> int
(** Slices that ran on a different core than the thread's previous
    slice. *)

val steals : t -> int
(** Times an idle core took a thread from another core's queue. *)
