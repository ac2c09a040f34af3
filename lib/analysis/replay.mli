(** Trace replay: the dynamic plane's window-ACL mirror.

    Rebuilds every cubicle's intended window ACL state from [Window]
    telemetry events and judges each [Window_access] against it,
    feeding {!Races}. Because the mirror tracks the ACL the monitor
    {e intended} — not the lazily-retagged MPK tags — it sees exactly
    the accesses that causal revocation (paper §5.6) lets through
    silently.

    Under tag virtualisation the mirror also consumes [Key_fault_in] /
    [Key_evict] events to shadow the virtual->physical key map: an
    uncovered access whose owner lost its tag to the accessor is
    reported as a [key-alias] (recycled tag, eviction scrub skipped)
    rather than a use-after-close. *)

open Cubicle

type t

val create : name_of:(int -> string) -> t

val seed_from_monitor : t -> Monitor.t -> unit
(** Prime the mirror with the live window state (and, with
    [~virtualise], the current key residency), for traces that start
    mid-run (after boot-time grants were already emitted or dropped). *)

val feed : ?core:int -> t -> Telemetry.Event.t -> unit
(** [core] (default 0) is the simulated core the event was emitted on;
    it scopes the happens-before edges fed to {!Races}. *)

val run : t -> Telemetry.Bus.entry list -> unit
(** [run t entries] feeds each entry with its recorded core. *)

val online_sink : t -> Telemetry.Bus.entry -> unit
(** The online race gate ({!Races} judged live): attach with
    [Bus.set_sink bus (Some (Replay.online_sink t))] and the mirror
    runs concurrently with the workload instead of replaying a captured
    ring — no ring-capacity limit. Bus sinks are tracing-gated and
    charge no simulated cycles, so performance goldens are unaffected.
    Read the verdicts with {!findings} when the workload is done. *)

val findings : t -> Report.finding list

val of_bus :
  Telemetry.Bus.t -> name_of:(int -> string) -> Report.finding list
(** One-shot convenience: replay the bus ring, return the findings. *)
