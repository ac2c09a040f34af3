(** Trace-derived interface summaries: the cross-check against the
    hand-written ones.

    Folds a traced run's [Call]/[Return] frames and [Window_access]
    records into per-edge access-mode sets ("while serving [sym],
    component [C] read/wrote [O]'s memory") and compares them with the
    {!Iface} summaries the static planes trust. A summary that claims
    less than the trace observed is stale and fails the analyze gate
    like a stale golden file.

    Attribution follows trampoline frames per core; shared calls push
    no frame (shared code runs with the caller's privileges), matching
    the static accessors fixpoint. Accesses outside any frame are
    folded under {!toplevel_sym} and exempt from the cross-check. *)

type t

val toplevel_sym : string

val create : unit -> t

val run : t -> Telemetry.Bus.entry list -> unit

type observation = {
  o_comp : string;
  o_sym : string;
  o_owner : string;
  o_read : bool;
  o_write : bool;
}

val observations : t -> Ir.program -> observation list
(** The folded per-edge modes, resolved to component names via the
    program's cid assignment; sorted, deterministic. Actors or owners
    with no matching component (e.g. the monitor) are dropped. *)

val check : t -> Ir.program -> Report.finding list
(** Cross-check: observed write with no declared written pointer
    argument → [Critical] [summary:write:COMP.sym]; observed read with
    no declared dereference at all → [High] [summary:read:COMP.sym].
    The converse (a declared access never observed) is {e not} flagged:
    one trace need not exercise every path. *)
