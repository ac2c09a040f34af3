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

val with_page_image : t -> int -> (bytes -> 'a) -> 'a
(** [with_page_image t pageno f] pins the page, copies all [page_size]
    bytes of its frame into the pager's one host page image (a checked,
    charged read identical to [Api.read_bytes] of the frame) and calls
    [f] on that image. The image is reused by the next page access:
    [f] must not let any view into it outlive the call. From inside
    [f], the only page access allowed is {!write_page_image} of the
    same page, which then sees the image still holding the page and
    can edit it in place; any other raises {!Cubicle.Types.Error}. *)

val write_page_image : t -> int -> len:int -> (bytes -> unit) -> unit
(** [write_page_image t pageno ~len fill] is {!write_page} whose
    callback lets [fill] put the page's first [len] bytes into the page
    image, copies them into the frame and zeroes the rest of the page.
    Outside {!with_page_image}, [fill] must write all [len] bytes. *)

val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit

val flush : t -> unit
(** Write back all dirty frames (no transaction semantics). *)
