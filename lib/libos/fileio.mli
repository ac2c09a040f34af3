(** Application-side file I/O wrappers with window management.

    This module is the analogue of the paper's porting effort (the
    ~400–600 SLOC added to NGINX and SQLite): each VFS call is wrapped
    so that path strings and data buffers are placed in windows opened
    for VFSCORE {e and} the file system backend before the call —
    windows must be opened by the owner for all cubicles in a nested
    call chain ahead of time (paper §5.6) — and closed after it. *)

type t

val make : Cubicle.Monitor.ctx -> t
(** Resolves the VFSCORE and backend cubicle ids, allocates a
    page-aligned path staging buffer in the caller's heap and a
    reusable data window. *)

val ctx : t -> Cubicle.Monitor.ctx

val open_file : t -> string -> create:bool -> int
val close_file : t -> int -> int
val pread : t -> fd:int -> buf:int -> len:int -> off:int -> int
(** [buf] must be a heap buffer owned by the calling cubicle; the
    window is managed internally. *)

val pwrite : t -> fd:int -> buf:int -> len:int -> off:int -> int

val sendfile : t -> fd:int -> conn:int -> len:int -> off:int -> int
(** Zero-copy [vfs_sendfile]: stream [len] bytes of the file at [off]
    to LWIP connection [conn] without staging them in a caller buffer
    (requires a stack booted with the sendfile path, e.g.
    {!Boot.net_stack}). Returns the byte count sent or a negative
    errno. *)

val file_size : t -> int -> int
val truncate : t -> fd:int -> size:int -> int
val fsync : t -> int -> int
val unlink : t -> string -> int
val exists : t -> string -> bool
val rename : t -> old_name:string -> new_name:string -> int

val write_file : t -> string -> string -> unit
(** Create/overwrite a whole file from a host string (staged through a
    caller-owned bounce buffer). Raises {!Cubicle.Types.Error} on
    failure. *)

val read_file : t -> string -> string
(** Read a whole file into a host string. *)
