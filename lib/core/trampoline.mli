(** Cross-cubicle call trampolines as memory objects.

    The call {e semantics} (permission switch, stack switch, shadow
    stack) live in {!Monitor.call}; this module materialises the
    trampoline {e code pages} so the CFI properties of §5.5 can be
    demonstrated and tested:

    - thunk pages live in the monitor's cubicle (key 0) and legitimately
      contain [wrpkru] — they are generated and signed by the trusted
      builder, so the loader accepts them;
    - guard pages are placed in caller cubicles; each guard entry is a
      [wrpkru; jmp thunk] pair followed by no-op padding so entering a
      guard page anywhere but at an entry's first instruction faults or
      falls through to a trap;
    - with the paper's MPK hardware modification (access-disable implies
      execute-disable), an isolated cubicle cannot fetch thunk bytes
      directly — it must enter through its guard page. *)

type t

val create : Monitor.t -> t
(** An empty table: no thunks. {!Builder.spawn} fills it through
    {!extend} and {!guard_calls}. Guard tables live on the monitor's
    cubicle records, so a monitor has one trampoline table. *)

val extend : t -> syms:string list -> unit
(** Install thunks for any of [syms] that lack one (respawned symbols
    reuse their old thunk). Each live isolated cubicle whose summary
    calls a symbol that just got its first thunk ({!guard_calls} left it
    waiting) gets its guard entry for it. *)

val guard_calls : t -> Types.cid -> string list -> unit
(** [guard_calls t cid calls]: guard entries in the isolated cubicle
    [cid] for the symbols of [calls] (calls its summary declares) that
    have a thunk. The rest wait for {!extend} to install theirs. This is
    the only source of guard entries: a cubicle whose summary calls
    nothing, an empty interface included, holds no entry and no guard
    page. A non-isolated cid is ignored. *)

val thunk_addr : t -> string -> int
(** Address of the thunk for a symbol. Raises [No_thunk] if the
    symbol has no thunk. *)

val guard_addr : t -> Types.cid -> string -> int
(** Address of the guard entry for (cubicle, symbol). *)

(** {2 Introspection (CubiCheck static plane)} *)

val syms : t -> string list
(** Symbols with an installed thunk, sorted. *)

val has_thunk : t -> string -> bool

val has_guard : t -> Types.cid -> string -> bool
(** Whether (caller cubicle, symbol) has a guard entry — isolated
    cubicles can only reach a thunk through their guard page. False for
    a cid that is not live: {!Monitor.destroy_cubicle} drops the guard
    table with the rest of the cubicle. *)

val guard_entries : t -> Types.cid -> int
(** The number of guard entries the cubicle holds: one per call edge
    (0 for a cid that is not live). *)

val enter_via_guard : t -> caller:Types.cid -> string -> unit
(** Model a well-behaved call entry: fetch the guard entry (in the
    caller's own pages, allowed), which executes [wrpkru] and jumps to
    the thunk. Succeeds silently. *)

val rogue_fetch : Monitor.t -> as_cubicle:Types.cid -> addr:int -> unit
(** Model a rogue jump: attempt an instruction fetch at [addr] while
    executing as [as_cubicle]. Raises {!Hw.Fault.Violation} when CFI
    holds (e.g. jumping straight into a thunk body or into another
    cubicle's code). *)
