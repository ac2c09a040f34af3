(** Per-page metadata of the simulated MMU: presence, page-level R/W/X
    permissions, and the 4-bit MPK protection key.

    Page-level permissions model the page-table bits that only the
    CubicleOS loader may set (execute-only code pages, read-only data),
    while the key models the MPK tag that the monitor reassigns during
    trap-and-map. *)

type perm = { r : bool; w : bool; x : bool }

val perm_r : perm
val perm_rw : perm
val perm_x : perm
(** Execute-only, as CubicleOS sets on code pages. *)

type t

val create : int -> t
(** [create npages] creates a table with every page absent, key 0. *)

val set_hook : t -> (int -> unit) -> unit
(** [set_hook t f] installs [f] to be called with the page number after
    every entry mutation ([set_present], [set_perm], [set_key]),
    whoever performs it. {!Cpu} uses this to invalidate its software
    TLB; there is a single hook (last install wins). *)

val present : t -> int -> bool
val set_present : t -> int -> bool -> unit
val perm : t -> int -> perm
val set_perm : t -> int -> perm -> unit
val key : t -> int -> int
val set_key : t -> int -> int -> unit

val allows : t -> int -> Fault.access -> bool
(** [allows t p a] is whether page [p]'s page-level permission admits
    access kind [a], read from its entry in place. *)
