(** Per-cubicle, per-category cycle attribution.

    The sink behind [Hw.Cost]: every simulated cycle charged anywhere in
    the system is billed to the {e currently executing cubicle} (set by
    the monitor on every cubicle switch) under a cost {!category}. The
    §6.4 overhead decomposition — trampoline vs MPK vs window vs data
    copy shares — is then a measured table whose rows sum exactly to
    the machine's total cycle count.

    Attribution is always on (it is one array add per charge) and never
    charges cycles itself, so it cannot perturb simulated behaviour. *)

type category =
  | Tramp  (** trampoline entry/exit, stack switching, direct calls *)
  | Mpk  (** [wrpkru] and page-key reassignment (incl. trap-and-map retags) *)
  | Window  (** window ACL bookkeeping and descriptor searches *)
  | Memcpy  (** data movement through the simulated memory *)
  | Fault  (** protection-fault delivery *)
  | Ipc
      (** kernel IPC / framework dispatch of the microkernel baselines
          (Genode RPC round trips, signals, library-VFS dispatch) — the
          mechanism the paper's Fig. 10 compares trampolines against *)
  | Keymux
      (** protection-key virtualization: virtual-key fault-ins
          (libmpk-style reassignment), eviction page retags and the
          PKRU shootdowns that scrub an evicted key from remote cores.
          Zero unless tag virtualisation is enabled, so existing
          configurations attribute identically. *)
  | Other  (** everything else: OS work, syscalls, device models *)

val categories : category list
(** In display order. *)

val cat_name : category -> string

type t = private {
  cores : int array array array;  (** core -> cubicle id -> per-category cycles *)
  mutable cur_core : int;  (** the executing core *)
  mutable cur : int;  (** the executing cubicle *)
  mutable cur_row : int array;  (** [cores.(cur_core).(cur)], cached for {!charge} *)
}
(** The machine's one execution context. The current core and the
    current cubicle are stored here and nowhere else: [Hw.Cost] reads
    [cur_core] to pick its per-core counter, [Bus] to pick its event
    track, and the monitor reads [cur]. The record is read-only outside
    this module; {!set_core} and {!set_current} are its only writers. *)

val create : ?ncores:int -> unit -> t
(** A table with [ncores] core planes (default 1), sized once. All
    cycles are billed to cubicle 0 (the monitor) on core 0 until
    {!set_current} / {!set_core} say otherwise. *)

val set_current : t -> int -> unit
(** [set_current t cid] — subsequent charges are billed to [cid]. The
    table grows on demand. *)

val set_core : t -> int -> unit
(** [set_core t core] — subsequent charges are billed to [core]'s plane
    of the table (still under the current cubicle). [Hw.Cpu.set_core]
    moves it on every scheduler slice. Raises [Invalid_argument] for a
    core outside [0 .. ncores - 1]. *)

val ncores : t -> int
(** Number of core planes (>= 1). *)

val charge : t -> category -> int -> unit
(** Bill [n] cycles; allocation-free hot path. *)

val row : t -> cid:int -> int array
(** A copy of one cubicle's per-category cycles summed across all cores,
    in {!categories} order. *)

val rows : t -> (int * int array) list
(** All cubicles with non-zero totals (summed across cores), ascending
    cubicle id. *)

val total : t -> int
(** Sum over all rows and all cores; equals [Hw.Cost.cycles] of the
    machine this sink is attached to. *)

val category_total : t -> category -> int

(** {1 Per-core views} — the core dimension of the table. The invariant
    extends per core: [core_total t ~core] equals the machine's
    per-core cycle counter, and the core totals sum to {!total}. *)

val core_total : t -> core:int -> int

val reset : t -> unit
