(** Deliberately-broken examples, one per detector.

    Each scenario runs CubiCheck against a seeded violation and records
    the findings plus the pass/severity it must trip. The bench
    [analyze] command and the test suite both fail if any scenario goes
    uncaught — the analyzer's own regression harness. *)

type scenario = {
  sc_name : string;
  expect_pass : string;
  expect_severity : Report.severity;
  findings : Report.finding list;
}

val caught : scenario -> bool

val missing_trampoline : unit -> scenario
(** static, [Critical] *)

val uncovered_pointer : unit -> scenario
(** static, [High] *)

val leaked_window : unit -> scenario
(** static, [High] *)

val ro_write : unit -> scenario
(** static, [Critical] — a summary-declared write reachable only
    through a read-only grant *)

val undeclared_call : ?declared:bool -> unit -> scenario
(** dynamic, [Critical] — an export's traced call to a symbol its
    component's summary omits. [~declared:true] declares the call, the
    fixed twin that must come out clean. *)

val all : unit -> scenario list
