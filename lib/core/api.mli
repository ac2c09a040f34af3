(** The CubicleOS API available to untrusted component code (Table 1),
    plus the allocation primitives and checked memory helpers.

    Everything takes the component's {!Monitor.ctx}; ownership and
    isolation policies are enforced by the monitor. *)

type ctx = Monitor.ctx

(** {1 Table 1: window management} *)

val window_init : ctx -> klass:Mm.Page_meta.kind -> Types.wid
val window_table_extend : ctx -> klass:Mm.Page_meta.kind -> unit
val window_add : ctx -> ?perm:Window.perm -> Types.wid -> ptr:int -> size:int -> unit
(** Grant a range through the window, optionally read-only
    ([~perm:Window.R]; default [RW]). *)

val window_remove : ctx -> Types.wid -> ptr:int -> unit

val window_downgrade : ctx -> Types.wid -> ptr:int -> unit
(** Downgrade the grant rooted at [ptr] to read-only in place. Causal
    semantics (§5.6): only the ACL narrows — pages a peer already holds
    stay writable until they migrate back. No upgrade path; re-grant
    with {!window_add} to widen. *)

val window_open : ctx -> Types.wid -> Types.cid -> unit
val window_close : ctx -> Types.wid -> Types.cid -> unit
val window_close_all : ctx -> Types.wid -> unit
val window_destroy : ctx -> Types.wid -> unit

val window_add_ranges : ctx -> ?perm:Window.perm -> Types.wid -> (int * int) list -> unit
(** Batched [window_add] over a list of [(ptr, size)] grants: one
    monitor crossing, atomic validation, one Add event per range, all
    carrying [perm] (default [RW]). *)

val window_open_many : ctx -> Types.wid -> Types.cid list -> unit
(** Batched [window_open] over a list of peers. *)

val window_forward : ctx -> owner:Types.cid -> Types.wid -> Types.cid -> unit
(** Grant-and-forward: extend a window of [owner] — already open for
    the caller — to a third cubicle down the call chain (§5.6 nested
    chains, sendfile fast path). *)

(** {1 Cross-cubicle calls} *)

type import = Monitor.import

val import : string -> import
(** A handle on an exported symbol ({!Monitor.import}). Make it once per
    call site, at module level or at a component's [init], not per
    call. *)

val call : ctx -> import -> int array -> int
(** Call an exported symbol through its trampoline. *)

val cid_of : ctx -> string -> Types.cid
(** Cubicle id of a component, for [window_open]. Cubicle ids are fixed
    at link time (paper §5.3). *)

val self : ctx -> Types.cid

(** {1 Allocation (trusted primitives)} *)

val malloc : ctx -> ?align:int -> int -> int
val free : ctx -> int -> unit
val alloc_pages : ctx -> int -> kind:Mm.Page_meta.kind -> int

val malloc_page_aligned : ctx -> int -> int
(** Page-aligned heap block: used by components that share buffers via
    windows, to avoid unintended sharing of co-located data (§5.3). *)

(** {1 Checked memory access helpers} *)

val read_string : ctx -> int -> int -> string
val write_string : ctx -> int -> string -> unit
val read_bytes : ctx -> int -> int -> bytes
val write_bytes : ctx -> int -> bytes -> unit

val read_into : ctx -> int -> bytes -> pos:int -> len:int -> unit
(** [read_into c addr buf ~pos ~len]: the same observation, checks and
    charge as [read_bytes c addr len], copied into [buf] at [pos]
    instead of a fresh buffer. *)

val write_sub : ctx -> int -> bytes -> pos:int -> len:int -> unit
(** [write_sub c addr buf ~pos ~len]: the same observation, checks and
    charge as [write_bytes c addr (Bytes.sub buf pos len)], without the
    intermediate copy. *)

val check_read : ctx -> int -> int -> unit
(** [check_read c addr len]: the observation, checks and charge of
    [read_bytes c addr len], copying nothing ({!Hw.Cpu.check_read}). *)

val check_write : ctx -> int -> int -> unit
(** [check_write c addr len]: the observation, checks and charge of a
    [len]-byte [write_bytes c addr], storing nothing
    ({!Hw.Cpu.check_write}). *)

val store_run : ctx -> int -> bytes -> pos:int -> len:int -> unit
(** [store_run c addr buf ~pos ~len]: the same observation, checks and
    charges as [write_u8 c (addr + j) buf.[pos + j]] for [j] from 0 to
    [len - 1] ({!Hw.Cpu.store_run}). *)

val read_u8 : ctx -> int -> int
val write_u8 : ctx -> int -> int -> unit
val read_u16 : ctx -> int -> int
val write_u16 : ctx -> int -> int -> unit
val read_u32 : ctx -> int -> int
val write_u32 : ctx -> int -> int -> unit
val read_i64 : ctx -> int -> int64
val write_i64 : ctx -> int -> int64 -> unit
val memcpy : ctx -> dst:int -> src:int -> len:int -> unit
val memset : ctx -> int -> int -> char -> unit

(** {1 Window-specific tags (ablation)} *)

val window_open_dedicated : ctx -> Types.wid -> Types.cid -> unit
val window_close_dedicated : ctx -> Types.wid -> Types.cid -> unit
