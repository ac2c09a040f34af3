(** The telemetry bus: one per simulated machine.

    Three planes share the bus:

    - an {e event plane}: a fixed-capacity {!Ring} of timestamped
      {!Event.t}s. Off by default; when off, emission is a single
      branch and nothing allocates. When on, each emit is one ring
      store (the ring overwrites its oldest entry when full, counting
      drops, so tracing can never abort a run). The plane can be
      {e sampled} ({!set_sampling}) — keep 1 in [n] emissions — and/or
      {e streamed} ({!set_sink}) — every kept entry is also handed to a
      caller-supplied sink, lifting the ring-capacity ceiling on trace
      length.
    - a {e counter plane}: always-on aggregate counters for the
      evaluation's figures — cross-cubicle call edges, per-symbol call
      counts, faults, retags, window ops, rejected accesses. These are
      what [Core.Stats] reads, so the counters are event-sourced at the
      same sites that trace. Sampling never applies here.
    - a {e latency plane}: an optional {!Latency} sink
      ({!set_latency}) fed from the counter-plane call sites (never
      from the ring), folding call/return pairs into per-edge cycle
      histograms that are exact under sampling and ring wrap.

    Timestamps are simulated cycles, read through the [now] closure the
    owning machine passes to {!create}; the bus itself never charges
    cycles, so tracing on vs off (sampled or streamed or neither) is
    bit-identical in simulated time. *)

module Str_tbl : Hashtbl.S with type key = string

type entry = {
  at : int;  (** simulated cycles at emission *)
  core : int;  (** simulated core that emitted it *)
  seq : int;  (** global emission order across cores *)
  ev : Event.t;
}

type t = {
  mutable tracing : bool;
  now : unit -> int;
  ring_capacity : int;
  rings : entry Ring.t array;  (** one track per core of [ctx] *)
  ctx : Attrib.t;  (** the execution context: [ctx.cur_core] picks the track *)
  mutable seq : int;
  mutable every : int;
  mutable countdown : int;
  mutable sampled_out : int;
  mutable sink : (entry -> unit) option;
  mutable lat : Latency.t option;
  mutable faults : int;
  mutable retags : int;
  mutable window_ops : int;
  mutable rejected : int;
  mutable shared : int;
  mutable edges : int array array;
  sym_ids : int Str_tbl.t;
  mutable sym_calls : int array;
}
(** The representation is exposed so the machine's checked accessors
    can test [tracing] without a cross-module call. Treat it as owned
    by the machine: all other code must go through the functions
    below. *)

val create : ?capacity:int -> ?now:(unit -> int) -> ?ctx:Attrib.t -> unit -> t
(** Tracing starts disabled, unsampled, with no sink and no latency
    sink; [now] (the machine's cycle clock) defaults to a constant 0.
    The bus keeps one event track per core of the machine's execution
    context [ctx] (one {!Ring} of {!capacity} entries each), so a
    chatty core can only evict its own history, and emits to the
    current core's track; without [ctx] it has one track. Everything
    below that reads "the ring" sums or merges the per-core tracks. *)

val tracing : t -> bool
val set_tracing : t -> bool -> unit

val set_sampling : t -> every:int -> unit
(** Keep 1 in [every] event-plane emissions ([every = 1] keeps all; the
    emission after a call to this function is always kept, so sampling
    is deterministic). Counter and latency planes are unaffected.
    Raises [Invalid_argument] for [every < 1]. *)

val sampled_out : t -> int
(** Emissions discarded by sampling since the last {!clear_ring}. *)

val set_sink : t -> (entry -> unit) option -> unit
(** Streamed export: every entry the ring keeps (post-sampling) is also
    passed to the sink, during the run. The sink must not charge
    simulated cycles (exporter sinks only buffer/write host-side). *)

val set_latency : t -> Latency.t option -> unit
(** Attach a latency sink; call sites feed it from the counter plane. *)

val latency : t -> Latency.t option

val emit : t -> Event.t -> unit
(** Push onto the ring (and sink) if tracing and the sampler keeps it;
    a single branch when tracing is off. Callers on hot paths should
    test {!tracing} first so the event itself is only allocated when it
    may be kept. *)

val events : t -> entry list
(** All per-core tracks merged back into global emission order
    (ascending [seq]); with one core this is just the ring contents,
    oldest first. *)

val iter_events : (entry -> unit) -> t -> unit
val captured : t -> int
val dropped : t -> int
val total_emitted : t -> int

val clear_ring : t -> unit
(** Clears every core's track; also resets {!sampled_out}, the global
    sequence counter and the sampling countdown. *)

val capacity : t -> int
(** Per-core track capacity. *)

(** {1 Counter plane} — always on; the sites below both bump the
    aggregate and (when tracing) emit the corresponding event. Sites
    whose event carries more context than the counter (faults, retags,
    window ops, rejections) bump here and emit separately. *)

val intern_sym : t -> string -> int
(** The id of a symbol name for {!count_call} and {!count_shared_call}:
    a new name gets the next small int, a known one its old id. The
    monitor interns each export once, when it is registered. *)

val count_call : t -> caller:int -> callee:int -> sym:string -> sid:int -> unit
(** Count one crossing on its (caller, callee) edge and on its symbol
    [sid] (from {!intern_sym}); both are array bumps, with no hashing
    and no allocation once the edge has been seen. [sym] is only for
    the traced {!Event.Call}. Cids must be non-negative. *)

val count_return : t -> caller:int -> callee:int -> sym:string -> unit
(** The return edge of {!count_call}: feeds the latency plane and (when
    tracing) emits {!Event.Return}. No counter is bumped — the call was
    already counted. *)

val observe_call : t -> caller:int -> callee:int -> unit
(** Latency plane only: record a crossing that is not a trampoline call
    edge (the microkernel baselines' RPC round trips). No counter, no
    event. *)

val observe_return : t -> caller:int -> callee:int -> unit

val count_shared_call : t -> caller:int -> sym:string -> sid:int -> unit
val count_fault : t -> unit
val count_retag : t -> unit
val count_window_op : t -> unit
val count_rejected : t -> unit

val faults : t -> int
val retags : t -> int
val window_ops : t -> int
val rejected : t -> int
val shared_calls : t -> int
val calls_between : t -> caller:int -> callee:int -> int
val calls_into : t -> int -> int
val calls_to_sym : t -> string -> int
(** Calls and shared calls into the symbol; 0 for a name never
    interned. *)

val total_calls : t -> int

val edges : t -> ((int * int) * int) list
(** All (caller, callee) edges with call counts, by count descending,
    ties by (caller, callee). *)

val snapshot_edges : t -> (int * int, int) Hashtbl.t

val reset_counters : t -> unit
(** Zeroes the counter plane only (interned symbol ids stay); the ring is cleared separately with
    {!clear_ring}, and an attached {!Latency} sink with
    [Latency.reset]. *)
