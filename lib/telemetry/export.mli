(** Exporters for captured event rings.

    All take [names] to render cubicle ids (the bus stores plain ints).
    {!trace_json} and {!folded_stacks} are pure functions over
    {!Bus.events} output; {!Stream} writes the same trace_event JSON
    incrementally through a caller-supplied writer, so a trace is no
    longer bounded by the ring capacity. *)

module Stream : sig
  (** Incremental Chrome [trace_event] writer.

      Create one, then either attach {!entry} as the bus's sink
      ([Bus.set_sink bus (Some (Stream.entry st))]) to write the trace
      during the run, or feed it a captured entry list. Call {!finish}
      exactly once at capture: it closes any still-open duration slices
      and writes the JSON trailer. Feeding the same entries through a
      stream and through {!trace_json} produces byte-identical output
      (the latter is implemented on the former). *)

  type t

  val create :
    names:(int -> string) ->
    cycles_per_us:float ->
    write:(string -> unit) ->
    unit ->
    t
  (** Writes the JSON header through [write] immediately. [write] is
      called with successive chunks of well-formed UTF-8 JSON text; it
      must not charge simulated cycles (write host-side only). *)

  val entry : t -> Bus.entry -> unit
  (** Format and write one entry. {!Event.Call} opens a duration slice,
      {!Event.Return} closes the innermost one — a return with no open
      slice (its begin predates the trace window or was sampled out) is
      dropped rather than corrupting slice nesting. Raises
      [Invalid_argument] after {!finish}. *)

  val open_slices : t -> int
  (** Duration slices currently open. *)

  val finish : t -> unit
  (** Close remaining open slices at the last seen timestamp and write
      the trailer. Idempotent. *)
end

val trace_json :
  names:(int -> string) ->
  cycles_per_us:float ->
  Bus.entry list ->
  string
(** Chrome [trace_event] JSON (the ["traceEvents"] array form), loadable
    in [chrome://tracing] or Perfetto. Trampoline {!Event.Call} /
    {!Event.Return} pairs become nested duration slices on their core's
    track (tid = core + 1, one lane per simulated core); faults, retags,
    PKRU writes, window/TLB/scheduler/pager activity become instant
    events with their payloads under ["args"]. Timestamps are simulated
    cycles divided by [cycles_per_us]. Orphan end-events are dropped and
    still-open slices closed at the end, exactly as {!Stream} does. *)

val hdr : Hist.t -> string
(** HdrHistogram-compatible percentile-distribution text (the
    ["Value Percentile TotalCount 1/(1-Percentile)"] table plus the
    [#\[Mean/Max/Buckets\]] footer), loadable by hdr-plot and the
    HdrHistogram plotFiles web viewer. One cumulative row per non-empty
    bucket from {!Hist.iter_buckets}; the final row reports the exact
    tracked maximum at percentile 1.0. Empty histogram → header only. *)

val folded_stacks :
  ?root:string -> ?until:int -> names:(int -> string) -> Bus.entry list -> string
(** Folded-stacks text ("frame;frame;frame cycles" per line, suitable
    for flamegraph.pl or speedscope). Simulated cycles elapsed between
    consecutive events are attributed to the cross-cubicle call stack
    in effect; frames are ["CUBICLE:sym"]. Pass [~until] (the cycle
    count at capture) to attribute the tail — the cycles after the last
    event — to the stack in effect there; without it that tail is
    unattributed. *)
