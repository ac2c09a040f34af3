(** Cross-cubicle call-graph extraction and trampoline completeness.

    Proves the CFI invariant of paper §5.5 over the IR: every edge
    between distinct cubicles resolves to an installed trampoline thunk
    (and, for isolated callers, a guard entry), and no summary declares
    a direct-entry escape hatch. *)

type edge = { caller : string; callee : string; sym : string }

val edges : Ir.program -> edge list
(** All cross-component edges declared by the interface summaries
    (including calls from [__init] bodies). *)

val check : Ir.program -> Report.finding list
(** Findings: [Critical] for a missing thunk or a declared direct call,
    [High] for a missing guard entry or an unresolved symbol. A symbol
    no live component exports but that has a thunk is not unresolved:
    its exporter was torn down, and a respawn reaches the same thunk. *)
