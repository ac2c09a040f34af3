(** Declarative interface summaries for the CubiCheck static plane.

    CubicleOS components are OCaml closures in this simulation, so a
    static analyzer cannot decompile them; instead each export ships a
    small {e interface summary} in its {!Builder.export} declaration —
    the moral equivalent of the exported-symbol list the real build
    system already consumes (paper §5.2), extended with the facts the isolation
    invariants depend on: which pointer arguments each export passes
    across cubicle boundaries, which windows it creates, grants, opens
    and tears down, and which arguments callees dereference.

    The summary language is deliberately tiny: straight-line statements
    plus [Branch] (alternative paths, analysed as a join) and [Loop]
    (body may run zero or more times). CubiCheck's static passes consume
    this IR; the replay plane then validates the summaries against the
    traced behaviour, so a stale or wrong summary surfaces as a dynamic
    finding rather than silent unsoundness. *)

(** A buffer as seen from inside one export: either the [i]-th argument
    the caller passed in, or a named local/long-lived buffer of the
    component itself. *)
type buf = Param of int | Local of string

type stmt =
  | Alloc of { buf : string; bytes : int }
      (** Names a component-local buffer of [bytes] bytes ([malloc],
          [alloc_pages], or a static carve-out). *)
  | Call of { sym : string; ptr_args : (int * buf * int) list }
      (** Cross-component call through the symbol table. [ptr_args]
          lists pointer-carrying argument positions: [(idx, buf, bytes)]
          says argument [idx] points at [buf] and the callee may touch
          [bytes] bytes through it (0 = the buffer's declared size). *)
  | Direct_call of { sym : string }
      (** An escape hatch: control transfer that does {e not} go through
          the trampoline/symbol table. Always flagged by CubiCheck. *)
  | Window_add of { win : string; buf : buf; bytes : int; standing : bool; rw : bool }
      (** Grant [bytes] bytes of [buf] through window [win]. [standing]
          marks a deliberately permanent grant (e.g. a registration-time
          staging buffer) the leak pass must not report. [rw] is the
          grant permission: [false] declares a read-only grant
          ([Api.window_add ~perm:Window.R]) — the coverage pass flags
          writes reachable through it, and the leak pass reports R-only
          leaks one severity below RW leaks. *)
  | Window_remove of { win : string; buf : buf }
  | Window_open of { win : string; peer : string }
      (** [peer] is a component name, or ["*"] for a grantee resolved
          dynamically (callback registration). *)
  | Window_forward of { win : string; peer : string }
      (** Grant-and-forward: [win] — already open for this component or
          opened by it — is extended to [peer] further down the call
          chain ({!Cubicle.Api.window_forward}). The coverage pass
          treats it exactly like {!Window_open}. *)
  | Window_close of { win : string; peer : string }
  | Window_close_all of { win : string }
  | Window_destroy of { win : string }
  | Branch of stmt list list
      (** Alternative paths: coverage facts must hold on {e all} arms
          (must-analysis), leak facts on {e any} arm (may-analysis). *)
  | Loop of stmt list  (** Body executes zero or more times. *)

type fundecl = {
  fd_sym : string;  (** export or entry point this summary describes *)
  fd_derefs : int list;
      (** argument positions this export dereferences (reads or writes
          through) — what turns a caller's integer into a {e pointer}
          obligation *)
  fd_writes : int list;
      (** the subset of {!fd_derefs} this export {e writes} through —
          the per-pointer-arg access mode the permission-aware coverage
          pass checks against grant permissions. Positions listed here
          but not in [fd_derefs] are still treated as dereferenced. *)
  fd_body : stmt list;
}

type t = fundecl list
(** One component's summaries: its entry points ([__init], [__main]),
    then one per export. An export declared with an empty body and no
    [derefs]/[writes] is inert: assumed to neither dereference arguments
    nor perform window/call activity — an explicit soundness caveat
    (see DESIGN.md). *)

val fundecl : ?derefs:int list -> ?writes:int list -> string -> stmt list -> fundecl
(** [fundecl ~derefs ~writes sym body]; [writes] (default none) lists
    the argument positions written through. *)

