(** The database pager: a fixed-capacity page cache with LRU eviction
    over a single database file, plus a rollback journal giving atomic
    transactions (SQLite-style: before a page is first modified inside
    a transaction its original content is appended to the journal;
    commit flushes dirty pages and deletes the journal; rollback
    replays it).

    Cache frames are page-aligned buffers in the application cubicle's
    heap; every miss, spill, journal append and sync goes through the
    OS interface — which is exactly the "uses the OS interface more
    often" axis that separates the two query groups of the paper's
    Figure 6. *)

val page_size : int

type journal_mode =
  | Rollback  (** journal the old content, write pages in place (default) *)
  | Wal
      (** write-ahead log: committed pages are appended to a [-wal]
          file and folded back into the database by {!checkpoint}
          (automatically on close, or when the log exceeds
          ~1000 pages). Readers consult the WAL index first. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable page_reads : int;
  mutable page_writes : int;
  mutable commits : int;
  mutable rollbacks : int;
}

val open_db : ?cache_pages:int -> ?journal_mode:journal_mode -> Os_iface.t -> path:string -> t
(** Opens or creates the database file. Default cache: 64 pages,
    rollback journal. An existing non-empty WAL from a previous session
    is recovered on open (its pages take precedence until the next
    checkpoint). *)

val checkpoint : t -> unit
(** WAL mode: fold the log back into the database file and truncate it.
    No-op in rollback mode or when the WAL is empty. Raises inside a
    transaction. *)

val wal_pages : t -> int
(** Entries currently in the write-ahead log (0 in rollback mode). *)

val close : t -> unit
(** Commits nothing: flushes dirty pages outside a transaction, closes
    the file and frees the cache frames. Raises {!Cubicle.Types.Error}
    if a transaction is open. The pager must not be used afterwards. *)

val page_count : t -> int
val stats : t -> stats

val cached_pages : t -> int list
(** Page numbers currently held in cache frames, sorted — the
    observable the LRU eviction-order tests pin down. *)

val ctx : t -> Cubicle.Monitor.ctx
(** The application context frames live in (for reading frame bytes). *)

val allocate_page : t -> int
(** Extend the file by one (zeroed) page; returns its page number. *)

val read_page : t -> int -> (int -> 'a) -> 'a
(** [read_page t pageno f] pins the page's cache frame and calls
    [f addr] with the simulated-memory address of its contents. *)

val write_page : t -> int -> (int -> 'a) -> 'a
(** Like {!read_page} but journals the original content first (inside a
    transaction) and marks the frame dirty. *)

(** {1 Frame views}

    The B-tree codec reads and edits nodes in place in their cache
    frames, through a view of the frame. *)

type view
(** One page held in a cache frame. Every accessor checks its offset
    against the page and raises {!Cubicle.Types.Error} outside it; none
    charges simulated cycles (the visit or write that hands out the
    view has charged for the whole access). *)

val with_page_view : t -> int -> (view -> 'a) -> 'a
(** [with_page_view t pageno f] pins the page, makes the checked,
    charged read of all [page_size] bytes of its frame that
    [Api.read_bytes] of the frame makes, copying nothing, and calls [f]
    on the frame's view. [f] must not use the view after it returns.
    From inside [f], the only page access allowed is
    {!write_page_view} of the same page; any other raises
    {!Cubicle.Types.Error}. *)

val write_page_view : t -> int -> len:int -> (view -> unit) -> unit
(** [write_page_view t pageno ~len fill] is {!write_page} making the
    checked, charged store of the page's first [len] bytes that
    [Api.write_sub] of [len] bytes makes, then running [fill] on the
    view to store them in place, then zeroing the rest of the page. A
    denied store raises before any byte changes. Outside
    {!with_page_view}, [fill] must write all [len] bytes. *)

val get_u8 : view -> int -> int
val get_u16 : view -> int -> int
val get_u32 : view -> int -> int
val get_i64 : view -> int -> int64
val set_u8 : view -> int -> int -> unit
val set_u16 : view -> int -> int -> unit
val set_u32 : view -> int -> int -> unit
val set_i64 : view -> int -> int64 -> unit

val sub_bytes : view -> int -> int -> bytes
val sub_string : view -> int -> int -> string
val set_string : view -> int -> string -> unit

val set_bytes : view -> int -> bytes -> pos:int -> len:int -> unit
(** [set_bytes v off b ~pos ~len] stores [b.[pos .. pos+len-1]] at [off]. *)

val blit : view -> src:int -> dst:int -> len:int -> unit
(** A move within the page; the ranges may overlap. *)

(** {2 The leaf offset memo}

    Each frame keeps an int array and a count for the codec: the entry
    offsets of the leaf it holds. The pager sets the count to -1
    (unknown) whenever the frame's bytes may change behind the codec:
    when a page is installed in the frame (loaded, allocated, or the
    frame reused), in the {!read_page} and {!write_page} callbacks, and
    before every {!write_page_view}'s [fill]. *)

val memo_count : view -> int
val memo : view -> int array
val set_memo : view -> int array -> int -> unit

val cached_views : t -> (int * view) list
(** The cached pages with their views, sorted by page number, for
    inspecting the memo. Pins nothing and charges nothing. *)

val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit

val flush : t -> unit
(** Write back all dirty frames (no transaction semantics). *)
