(** The cubicle loader: the only path by which code enters the system
    (paper §5.4).

    It enforces two integrity properties on untrusted images before
    mapping them executable: no [syscall] and no [wrpkru] byte
    sequences anywhere in the code (scanned at every byte offset), and
    execute-only code pages whose permissions cubicles can never change
    afterwards. Images generated and signed by the trusted builder
    (trampoline thunks) are exempt from the scan. *)

type image = {
  img_name : string;
  code : bytes;
  rodata : bytes;  (** read-only globals *)
  data : bytes;  (** read-write globals *)
  signed : bool;  (** true only for trusted-builder output *)
}

type loaded = {
  cid : Types.cid;
  code_base : int;
  code_pages : int;
  rodata_base : int;
  data_base : int;
}

type scanned
(** An image whose scan passed (or a signed one). Only {!scan} makes
    one, so a holder can load it again without scanning it again. The
    image's bytes must not change after the scan: hand {!scan} an image
    no one else holds. *)

val scan : image -> scanned
(** Scan an unsigned image for forbidden sequences; raises
    {!Types.Denied} [Forbidden_code] if it holds any. *)

val scan_count : unit -> int
(** Unsigned images scanned so far by this process. *)

val load_scanned :
  Monitor.t ->
  scanned ->
  kind:Types.kind ->
  heap_pages:int ->
  stack_pages:int ->
  exports:Monitor.export_spec list ->
  loaded
(** Create the cubicle, map code pages execute-only, rodata read-only,
    data read-write, populate the page metadata map, and register the
    exports so cross-cubicle calls resolve through trampolines. *)

val load :
  Monitor.t ->
  image ->
  kind:Types.kind ->
  heap_pages:int ->
  stack_pages:int ->
  exports:Monitor.export_spec list ->
  loaded
(** [load mon img] is [load_scanned mon (scan img)]: every image
    loaded this way is scanned, however often it was before. *)

val image_of_ops : name:string -> ?data_bytes:int -> ?ops:int -> unit -> image
(** Convenience: an unsigned image with synthesized (safe) code. *)
