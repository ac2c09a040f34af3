(** The PLAT component: platform glue — console output and a
    deterministic entropy source. *)

type state

val make : unit -> state * Cubicle.Builder.component
(** Exports: [plat_putc(c)], [plat_rand()] (deterministic PRNG),
    [plat_halt()]. *)

val console_contents : state -> string
