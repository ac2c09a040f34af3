(** Window descriptors: user-managed, discretionary ACLs for memory.

    Each cubicle has three window descriptor arrays — for global, stack
    and heap data (paper §5.3). A descriptor holds a set of memory
    ranges owned by the cubicle and the ascending list of cubicles the
    window is currently open for (grantees are few; a bitmask over the
    whole cid space cost a word per 63 cids per window). Window 0 is implicit (a cubicle always accesses
    its own memory) and is not represented here.

    The monitor's trap-and-map handler looks up the faulting page in a
    page-indexed array that every table shares (standing sendfile
    grants make the ACL lookup hot); the result — including the charged
    "descriptors inspected" count — is bit-identical to the paper's
    linear search through the descriptor array for the faulting page's
    class. *)

type perm = R | RW
(** A grant's permission. [R] lets the peer read the range; [RW] also
    lets it write. Permission lives on the range, not the window, so
    one window can mix read-only staging ranges with writable data
    ranges. There is no write-only or exec grant: windows share data,
    and exec stays forbidden on foreign pages (paper §5.4). *)

type access = Read | Write
(** What a peer is trying to do through the window. *)

type range = { ptr : int; size : int; mutable perm : perm }

type t = private {
  wid : Types.wid;
  owner : Types.cid;
  klass : Mm.Page_meta.kind;  (** which descriptor array it lives in *)
  mutable ranges : range list;
  mutable opened : Types.cid list;  (** grantees, ascending *)
  universe : int;  (** the table's [ncubicles]: grantees are below it *)
  mutable alive : bool;
  mutable dedicated_key : int option;
      (** the window's own MPK tag, when the deployment opted into
          ERIM/Hodor-style window-specific tags (paper §5.6/§8) *)
}

type index
(** The window ACL index: for each page, every live window with a range
    touching it, whatever its owner and class. One per monitor, shared
    by all its tables. *)

val create_index : int -> index
(** [create_index npages]: an empty index over pages [0, npages). It
    costs one word per page. *)

type table
(** The per-class descriptor arrays plus wid allocation. *)

val create_table : owner:Types.cid -> ncubicles:int -> index:index -> table
(** Ranges added to the table's windows must lie on pages below the
    [index]'s [npages]. *)

val owner : table -> Types.cid

val init : table -> klass:Mm.Page_meta.kind -> t
(** [cubicle_window_init]: fresh empty window in the array for
    [klass]. Raises [Descriptors_full] when that array is full
    (fixed capacity, extended on request via {!extend} — paper §5.3). *)

val capacity : table -> Mm.Page_meta.kind -> int

val extend : table -> Mm.Page_meta.kind -> unit
(** Double the capacity of one descriptor array. *)

val find : table -> Types.wid -> t
(** Raises [No_window] for an unknown or destroyed wid. *)

val add_range : ?perm:perm -> table -> t -> ptr:int -> size:int -> unit
(** Adds a grant and enters its pages into the table's page index.
    [perm] defaults to [RW] (the paper's all-or-nothing grant). *)

val range_at : t -> ptr:int -> range
(** The newest range rooted at [ptr]. Raises [No_range_at] if there is
    none. *)

val downgrade_range : t -> ptr:int -> unit
(** Downgrade the (newest) grant rooted at [ptr] to [R] in place.
    Downgrading is always safe for the peer — it can only lose write
    access; widening R back to RW is deliberately not provided (the
    owner re-grants instead, so a widening is always a visible window
    op). Raises [No_range_at] if no range starts at [ptr]. *)

val remove_range : table -> t -> ptr:int -> unit
(** Removes exactly one range starting at [ptr] (the most recently
    added, if several share a base) and unindexes any page no other
    range of the window still touches. Raises [No_range_at] if no
    range starts at [ptr]. *)

val open_for : t -> Types.cid -> unit
(** Raises [Invalid_argument] for a cid outside the table's
    [ncubicles], as {!close_for} and {!is_open_for} do. *)

val close_for : t -> Types.cid -> unit
val close_all : t -> unit
val destroy : table -> t -> unit

val is_open_for : t -> Types.cid -> bool
val contains : t -> int -> bool
(** Whether any range of the window contains the address. Window checks
    operate at byte granularity here; the {e enforcement} is per page
    (the monitor retags whole pages), which is why the paper tells
    developers to align shared structures. *)

val covered_prefix : ?access:access -> t -> ptr:int -> size:int -> int
(** How many bytes of the span [\[ptr, ptr+size)] are covered by the
    window's ranges, starting at [ptr] — possibly stitched together
    from several grants. A partially covering grant returns the exact
    byte offset at which a peer's access would fault at runtime. Only
    ranges allowing [access] (default [Read]) participate: a [Write]
    span must be stitched entirely from [RW] grants. *)

val covers : ?access:access -> t -> ptr:int -> size:int -> bool
(** Explicit size check on overlap: the {e whole} span is granted, not
    merely its first byte. The runtime's trap-and-map only ever tests
    single faulting addresses, so a too-short grant used to surface as
    a fault halfway through a peer's copy; CubiCheck's coverage pass
    and this predicate make the full-span check explicit. [access]
    defaults to [Read]. *)

val writable : t -> addr:int -> bool
(** Whether a write to [addr] through this window is backed by some
    [RW] grant — the fault path's permission check. {!contains} stays
    access-agnostic so an R-only write fault is still {e found} (and
    its descriptor walk priced) before being rejected. *)

val none : t
(** {!search}'s answer when no window matches: a dead window, of no
    table. *)

val search : table -> klass:Mm.Page_meta.kind -> addr:int -> t
(** Page-indexed lookup of the table's live [klass] window containing
    [addr], or {!none}. It is the window a linear scan of the class's
    array finds first, and it allocates nothing. *)

val inspected : table -> t -> int
(** How many descriptors a linear scan inspects to reach a live window
    of the table: its 1-based position in its class's array. The
    monitor charges the ACL search by it. *)

val indexed : table -> page:int -> t list
(** Every window the shared index lists for [page], whatever its owner
    or class. For tests: each must be live, in its owner's table. *)

val set_dedicated_key : t -> int option -> unit

val live_windows : table -> t list
val count : table -> int
