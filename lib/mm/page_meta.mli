(** Per-page ownership and type metadata.

    CubicleOS keeps a page metadata map that lets the monitor locate,
    in O(1), the owning cubicle and the page class (code, global data,
    stack or heap) of any faulting address (paper §5.3, step ❷). Pages
    are strictly assigned an owner and type at allocation time. Owner
    and class share one int per page. *)

type kind = Code | Global | Stack | Heap

type t

val create : int -> t
(** [create npages]: all pages initially unowned. *)

val assign : t -> page:int -> owner:int -> kind:kind -> unit
(** Raises [Invalid_argument] if the page already has an owner —
    ownership is set once at allocation time (safety property from
    L4Sec cited in §5.3). *)

val release : t -> page:int -> unit
val owner : t -> int -> int option
val kind : t -> int -> kind option

val owner_id : t -> int -> int
(** {!owner} without the option, for the fault path: the owning
    cubicle, or -1 for an unowned page. Allocates nothing. *)

val kind_code : t -> int -> int
(** {!kind} as {!code}, or 0 for an unowned page. Allocates nothing. *)

val code : kind -> int
(** A class's code, 1 to 4: global, stack, heap, code. *)

val kind_of_code : int -> kind
(** The class with that {!code}; [Invalid_argument] for any other int. *)

val kind_to_string : kind -> string
