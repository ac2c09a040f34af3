(** Per-edge call-latency distributions.

    A sink that pairs call/return observations into one {!Hist} of
    simulated-cycle latencies per caller->callee edge. Attach one to a
    {!Bus} with [Bus.set_latency] and the bus's counter-plane call
    sites feed it directly — the sink sees {e every} cross-cubicle
    call, independent of ring capacity and of event-plane sampling, so
    per-edge sample counts equal the bus's [calls_between]. The
    microkernel baselines feed their RPC round trips through the same
    interface ([Bus.observe_call] / [Bus.observe_return]).

    Observation never charges simulated cycles. *)

type t

val create : unit -> t

val on_call : t -> caller:int -> callee:int -> at:int -> unit
(** A call on edge [caller->callee] began at cycle [at]. *)

val on_return : t -> caller:int -> callee:int -> at:int -> unit
(** The innermost in-flight call on that edge returned at cycle [at];
    records [at - call time] in the edge's histogram. A return with no
    matching call (sink attached mid-call) is counted in {!unmatched}
    and otherwise ignored. *)

val edge : t -> caller:int -> callee:int -> Hist.t option

val edges : t -> ((int * int) * Hist.t) list
(** All edges with their histograms, descending sample count. *)

val observed : t -> int
(** Total completed calls recorded across all edges. *)

val unmatched : t -> int
val in_flight : t -> int
