(** First-fit free-list allocator over a range of units.

    The monitor uses one in page units with alignment 1 as the system's
    page-frame allocator, and one in bytes per heap region of each
    isolated cubicle (paper §4: "each isolated cubicle has its own
    memory sub-allocator"). Block headers are kept on the OCaml side so
    heap corruption by a misbehaving component cannot break the
    allocator itself — matching the paper's placement of allocation
    metadata under monitor control. *)

type t

exception Exhausted

val create : base:int -> size:int -> t
(** Manage the unit range [base, base+size). *)

val alloc : ?align:int -> t -> int -> int
(** [alloc t n] returns the lowest [align]-aligned base of [n] free
    units ([align] defaults to 8; pass [4096] for page-aligned buffers
    that must not share window pages with other data, [1] for page
    frames). Raises {!Exhausted} when no run fits. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] on a double free or a foreign pointer. *)

val block_size : t -> int -> int option
val used_bytes : t -> int
val size : t -> int
val live_blocks : t -> int
