(** Per-cubicle heap sub-allocator.

    Each isolated cubicle owns a private first-fit free-list allocator
    over its heap region (paper §4: "each isolated cubicle has its own
    memory sub-allocator"). Block headers are kept on the OCaml side so
    heap corruption by a misbehaving component cannot break the
    allocator itself — matching the paper's placement of allocation
    metadata under monitor control. *)

type t

exception Out_of_heap

val create : base:int -> size:int -> t
(** Manage the byte range [base, base+size). *)

val alloc : ?align:int -> t -> int -> int
(** [alloc t n] returns the address of a fresh block of [n] bytes
    ([align] defaults to 8; pass [4096] for page-aligned buffers that
    must not share window pages with other data). Raises
    {!Out_of_heap}. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] on a double free or a foreign pointer. *)

val block_size : t -> int -> int option
val used_bytes : t -> int
val base : t -> int
val size : t -> int
val live_blocks : t -> int
