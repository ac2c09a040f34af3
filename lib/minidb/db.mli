(** The database engine: catalog, tables, secondary indexes, and a
    small execution layer (point/range queries, updates, joins,
    aggregates) — enough surface to express the speedtest1 workload.

    Storage: page 0 holds the catalog (table/index roots and rowid
    counters); each table is a B+tree keyed by rowid with
    record-encoded rows; each index is a B+tree keyed by a composite of
    the column value and the rowid. Transactions delegate to the
    pager's rollback journal; the catalog is re-written on commit when
    roots moved. *)

type t
type table
type index

val open_db :
  ?cache_pages:int -> ?journal_mode:Pager.journal_mode -> Os_iface.t -> path:string -> t
val close : t -> unit
val pager : t -> Pager.t

(** {1 Schema} *)

val create_table : t -> string -> table
val find_table : t -> string -> table
(** Raises {!Cubicle.Types.Error} if absent. *)

val table_names : t -> string list

val create_index : t -> table -> col:int -> name:string -> index
(** Builds the index from existing rows. [col] indexes into the row's
    value list; integer columns get ordered range support, text columns
    equality lookups. *)

val find_index : t -> string -> index
val row_count : table -> int

(** {1 Transactions} *)

val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit

val with_txn : t -> (unit -> 'a) -> 'a
(** Begin/commit around [f]; rolls back if [f] raises. *)

(** {1 Rows} *)

val insert : t -> table -> Record.value list -> int64
(** Returns the assigned rowid; maintains all indexes. *)

val get : table -> int64 -> Record.value list option
val update : t -> table -> int64 -> Record.value list -> bool
val delete : t -> table -> int64 -> bool

(** {1 Queries} *)

val scan : table -> (int64 -> Record.value list -> unit) -> unit
val scan_range : table -> lo:int64 -> hi:int64 -> (int64 -> Record.value list -> unit) -> unit

val index_range :
  index -> table -> lo:int -> hi:int -> (int64 -> Record.value list -> unit) -> unit
(** Integer-indexed rows with [lo <= col <= hi], fetching each row. *)

val index_eq_text : index -> table -> string -> (int64 -> Record.value list -> unit) -> unit

val count_where : table -> (Record.value list -> bool) -> int
val max_rowid : table -> int64

val integrity_check : t -> bool
(** Walk every table and index; verify every index entry resolves to a
    live row with the indexed value, and row/entry counts agree. *)
