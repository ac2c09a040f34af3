(** CubiCheck findings: the common currency of every pass.

    A finding's [key] is its stable identity — address-free and
    deterministic, so the checked-in baseline survives re-runs, ASLR of
    the simulated allocator, and OCaml version changes. The baseline
    itself is the bench suite's flat [{"key": count}] JSON format. *)

type severity = Critical | High | Medium | Info
type plane = Static | Dynamic

type finding = {
  pass : string;  (** "trampoline" | "coverage" | "leak" | "race" | "use-after-close" | … *)
  severity : severity;
  plane : plane;
  component : string;  (** source component the fix belongs to *)
  detail : string;  (** human-readable one-liner *)
  key : string;  (** stable dedup / baseline key *)
  count : int;  (** occurrences collapsed by {!dedup}; [make] sets 1 *)
}

val severity_name : severity -> string

val make :
  pass:string ->
  severity:severity ->
  plane:plane ->
  component:string ->
  detail:string ->
  key:string ->
  finding

val sort : finding list -> finding list
(** Severity-major, key-minor — the canonical order everywhere. *)

val dedup : finding list -> finding list
(** Keep the first finding per key (input order), with [count] summed
    over all occurrences of that key. {!baseline_counts} sums counts,
    so a baseline computed before and after [dedup] is identical. *)

val print_table : Format.formatter -> finding list -> unit

val to_json : ?extra:(string * string) list -> finding list -> string
(** ANALYSIS.json body; [extra] prepends top-level fields (already
    rendered as JSON values). *)

val baseline_counts : finding list -> (string * int) list
(** Key → occurrence count, sorted — what gets written as the baseline. *)

val diff_baseline :
  baseline:(string * int) list -> finding list -> (string * int) list * (string * int) list
(** [(fresh, resolved)]: keys whose count exceeds the baseline (CI
    failure) and baseline keys no longer present at their count (prompt
    to re-baseline). *)
