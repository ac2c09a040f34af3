(** Cubicle bitmasks. Each window descriptor stores the set of cubicles
    it is open for as a bitmask whose size is fixed at deployment time
    (the number of cubicles is known at link time; paper §5.3). *)

type t

val empty : int -> t
(** [empty n] is the empty set over a universe of [n] cubicles. *)

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val clear : t -> unit
val is_empty : t -> bool
val cardinal : t -> int
val next : t -> int -> int
(** [next t i] is the least member [>= i], or [-1] when there is none.
    Walking a set with it allocates nothing. *)

val elements : t -> int list
(** In ascending order. *)

val universe : t -> int
