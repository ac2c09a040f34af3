(** Raw simulated physical memory: a flat byte array with unchecked
    accessors. All permission checking lives in {!Cpu}; only trusted
    code (monitor, loader, host bridge) touches this module directly.

    The bytes live off the OCaml heap and are freed when [t] is
    collected. *)

type t

val create : int -> t
(** [create bytes] allocates [bytes] of zeroed memory, rounded up to a
    whole number of pages. Nothing is written at creation: a page costs
    host memory only once it is written, and reads as zero until then. *)

val size : t -> int
val npages : t -> int

(** Unchecked scalar accessors for callers that have already proven the
    access in-bounds: the CPU's checked accessors, after their
    permission check, and minidb's frame views, which check every
    offset against their page. Little-endian; the u32 variants avoid
    Int32 boxing. *)

val unsafe_get_u8 : t -> int -> int
val unsafe_set_u8 : t -> int -> int -> unit
val unsafe_get_u16 : t -> int -> int
val unsafe_set_u16 : t -> int -> int -> unit
val unsafe_get_u32 : t -> int -> int
val unsafe_set_u32 : t -> int -> int -> unit
val unsafe_get_i64 : t -> int -> int64
val unsafe_set_i64 : t -> int -> int64 -> unit

val read_bytes : t -> int -> int -> bytes
(** [read_bytes t addr len] copies [len] bytes out of simulated memory. *)

val write_bytes : t -> int -> bytes -> unit

val read_into : t -> int -> bytes -> pos:int -> len:int -> unit
(** [read_into t addr buf ~pos ~len] copies [len] bytes out of simulated
    memory into [buf] at [pos], without allocating. Raises
    [Invalid_argument], before any byte moves, if either range is out
    of bounds; so does {!write_sub}. *)

val write_sub : t -> int -> bytes -> pos:int -> len:int -> unit
(** [write_sub t addr buf ~pos ~len] copies [buf.[pos .. pos+len-1]]
    into simulated memory at [addr]. *)

val write_string : t -> int -> string -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy within simulated memory (handles overlap like [memmove]). *)

val fill : t -> int -> int -> char -> unit
