(** Fixed-capacity ring buffer for trace entries.

    The storage is allocated once at creation; {!push} never allocates.
    When the ring is full, pushing overwrites the oldest element and
    counts it in {!dropped}, so a trace always holds the most recent
    [capacity] entries and reports exactly how much history was lost. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [create ~capacity ~dummy] — [dummy] fills unused slots (and refills
    them on {!clear}) so the ring never retains stale elements. *)

val length : 'a t -> int
(** Live elements currently held, [<= capacity]. *)

val dropped : 'a t -> int
(** Elements overwritten because the ring was full. *)

val total : 'a t -> int
(** Elements ever pushed ([length + dropped] after any wrap). *)

val push : 'a t -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
(** Drop all elements and reset every counter. *)
