(** A B+tree over pager pages: 64-bit keys, string payloads (≤ 1 KiB),
    leaf chaining for range scans. Used for both table storage (key =
    rowid, payload = encoded record) and secondary indexes (key =
    composite of column value and rowid, payload = rowid).

    Deletion is lazy (no rebalancing): entries are removed from leaves,
    and emptied nodes are left in place — the strategy speedtest-style
    workloads tolerate well and a common simplification (documented in
    DESIGN.md). *)

type t

val create : Pager.t -> t
(** Allocates an empty root leaf. *)

val attach : Pager.t -> root:int -> t
(** Open an existing tree by root page number. *)

val root : t -> int
(** The current root page (persist it in the catalog; it changes when
    the root splits). *)

val max_payload : int

val insert : t -> key:int64 -> payload:string -> unit
(** Replaces the payload if the key exists. *)

val find : t -> int64 -> string option

val delete : t -> int64 -> bool
(** [true] if the key was present. *)

val iter_range : t -> lo:int64 -> hi:int64 -> (int64 -> string -> unit) -> unit
(** In key order over [lo, hi] inclusive. *)

val iter_all : t -> (int64 -> string -> unit) -> unit

(* The key-only scans below copy no payload out of the frames, but
   visit the same pages in the same order as [iter_range] over the same
   range, so their pager counters and charges are the same. *)
val count_range : t -> lo:int64 -> hi:int64 -> int
val min_key : t -> int64 option
val max_key : t -> int64 option

val depth : t -> int

val leaf_locate : Pager.view -> int64 -> int * int * bool
(** [leaf_locate view key] on a leaf: the offset of the first entry
    whose key is >= [key] (the end if none), the offset just past the
    last entry, and whether the entry at the first offset holds [key].
    A binary search over the frame's offset memo, rebuilt first if it
    is invalid. *)
