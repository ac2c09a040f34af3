(** Window-coverage dataflow (must-analysis), permission-aware.

    For every pointer argument a component passes across a cubicle
    boundary, prove that — on all paths — a window grant of sufficient
    size is live and open for every component that may dereference the
    pointer (computed by an interprocedural accessors fixpoint over the
    interface summaries), and that every component that may {e write}
    through the pointer reaches it via an RW grant. [Branch] joins by
    intersection; [Loop] bodies are analysed with the loop-entry state
    and may run zero times. *)

val check : Ir.program -> Report.finding list
(** Coverage findings (static, pass ["coverage"]):
    [no-grant] ([High]) — no live window grants the buffer at all;
    [not-open] ([High]) — granted but never opened for an accessor;
    [partial] ([High]) — open grant smaller than the bytes touched;
    [ro-write] ([Critical]) — a write-accessor reaches the buffer but
    every covering grant is read-only: under lazy trap-and-map the page
    is retagged on the accessor's first read, so the write never faults
    at runtime.

    Least-privilege lint (static, pass ["over-privilege"], [Medium]):
    an RW grant of a local buffer that no external component ever
    writes through — it should have been granted [R]. *)
