(** Runtime counters used by the evaluation: cross-cubicle call counts
    per edge (Figures 5 and 8), trap-and-map activity, window
    operations.

    A read-side view over {!Telemetry.Bus}: the monitor counts into the
    bus's always-on counter plane (and, when tracing is enabled, its
    event ring), and every getter folds over bus state. TLB counters are
    summed live over every core's {!Hw.Tlb} — there is no sync step and
    no way for them to go stale. *)

type t

val of_bus : ?tlbs:Hw.Tlb.t list -> Telemetry.Bus.t -> t
(** View over an existing bus (the monitor passes the machine's bus and
    every core's TLB). Without [?tlbs] the TLB getters return 0. *)

val reset : t -> unit
(** Zero the bus counters and every core's TLB counters. *)

val tlb_hits : t -> int
(** Summed over every core, as are [tlb_misses] and [tlb_flushes]. *)

val tlb_misses : t -> int
val tlb_flushes : t -> int

val tlb_hit_rate : t -> float
(** Hits over lookups, in [0,1]; 0 when the TLB was never consulted. *)

val calls_between : t -> caller:Types.cid -> callee:Types.cid -> int
val calls_into : t -> Types.cid -> int
val calls_to_sym : t -> string -> int
val total_calls : t -> int
val shared_calls : t -> int
val faults : t -> int
val retags : t -> int
val window_ops : t -> int

val rejected : t -> int
(** Calls to an unresolved symbol (CFI) and MPK data faults the window
    ACL refuses. Other refusals are not counted: a {!Types.Denied} from
    the loader's scan or a window service, or an execute fault on a
    thunk. *)

val edges : t -> ((Types.cid * Types.cid) * int) list
(** All (caller, callee) edges with their call counts, sorted by count
    descending — the annotations on the paper's Figures 5 and 8. *)

type snapshot

val snapshot : t -> snapshot
val diff_edges : t -> since:snapshot -> ((Types.cid * Types.cid) * int) list
(** Edge counts accumulated since the snapshot (the paper counts calls
    "during benchmark measurement time" for Fig. 5). *)
