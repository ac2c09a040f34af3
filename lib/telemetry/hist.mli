(** Log-bucketed histogram of non-negative cycle counts.

    Values below 16 are recorded exactly; above that every power of two
    is split into 16 sub-buckets (HdrHistogram-style), so any reported
    percentile is within ~6% of the true sample. Recording is one array
    increment — cheap enough to sit on the cross-cubicle call path
    without perturbing wall-clock measurements (and it never charges
    simulated cycles, so it cannot perturb simulated time at all). *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample; negative values clamp to 0. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int
(** 0 when empty. *)

val mean : t -> float
(** 0. when empty. *)

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0,1] ([q] is clamped): the lower bound
    of the bucket holding the sample of rank [ceil (q * count)],
    clamped into [[min_value, max_value]] — so a single-sample
    histogram reports that sample exactly at every percentile, and a
    value sitting on a bucket boundary is reported exactly. When the
    rank reaches [count] the exact tracked maximum is returned. 0 when
    empty. *)

val iter_buckets : (low:int -> count:int -> unit) -> t -> unit
(** Non-empty buckets, ascending; [low] is the bucket's smallest
    representable value. *)
