(** The OS interface the database engine runs on.

    The engine is written against this record so the same code runs on
    every deployment the paper evaluates:
    - {!cubicleos}: through {!Libos.Fileio} (windows + trampolines into
      VFSCORE/RAMFS) — all four protection levels;
    - {!linux}: a host-Linux model — the {!host_store} with a syscall
      charge per operation (the Figure 10a baseline);
    - the microkernel/Genode RPC variants live in [lib/ukernel]: the
      same {!host_store} with session and packet-stream charges. *)

type t = {
  ctx : Cubicle.Monitor.ctx;  (** the application cubicle's context *)
  open_file : string -> create:bool -> int;
  close_file : int -> int;
  pread : fd:int -> buf:int -> len:int -> off:int -> int;
  pwrite : fd:int -> buf:int -> len:int -> off:int -> int;
  file_size : int -> int;
  truncate : fd:int -> size:int -> int;
  fsync : int -> int;
  unlink : string -> int;
  exists : string -> bool;
  rename : old_name:string -> new_name:string -> int;
}

val cubicleos : Libos.Fileio.t -> t

type op_kind = Meta | Data  (** [Data] is pread and pwrite *)

type charges = {
  op : 'a. op_kind -> (unit -> 'a) -> 'a;  (** wraps every operation *)
  on_read : Bytes.t -> pos:int -> len:int -> unit;
      (** file bytes a pread is about to copy out *)
  on_write : Bytes.t -> pos:int -> len:int -> unit;  (** file bytes a pwrite just stored *)
}
(** The per-operation charge hook of {!host_store}. *)

val host_store : charges -> Cubicle.Monitor.ctx -> t
(** The in-memory host file store: a fresh private file namespace whose
    data moves through the checked accessors into and out of the
    caller's buffers, priced by [charges]. *)

val linux : Cubicle.Monitor.ctx -> t
(** The {!host_store} with one syscall charge (category [Other]) per
    operation. Fresh private file namespace per call. *)
