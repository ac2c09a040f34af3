(** Physical page-frame allocator: hands out contiguous page runs from
    the simulated machine's page space. Used by the loader and by the
    ALLOC component for coarse-grained (page-granular) allocations. *)

type t

exception Out_of_memory

val create : first_page:int -> npages:int -> t
(** [create ~first_page ~npages] manages the page range
    [first_page, first_page+npages). The pages below [first_page] are
    typically reserved for the monitor. *)

val alloc : t -> int -> int
(** [alloc t n] returns the first page of a fresh run of [n] contiguous
    pages. Raises {!Out_of_memory} when no run fits. *)

val free : t -> int -> unit
(** [free t page] releases the run previously returned at [page].
    Raises [Invalid_argument] if [page] is not an allocated run start. *)

val run_size : t -> int -> int option
(** Size in pages of the allocated run starting at [page], if any. *)

val free_pages : t -> int
val used_pages : t -> int
