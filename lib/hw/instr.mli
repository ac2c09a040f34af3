(** A small instruction model for component code images.

    CubicleOS's loader refuses to load any component whose code contains
    a [wrpkru] or [syscall] instruction, scanning the raw bytes so that
    sequences hidden inside immediates or spanning instruction
    boundaries are also caught (as in ERIM / Hodor). To exercise that
    mechanism faithfully, component images in this reproduction are real
    byte strings assembled from this instruction set, and the forbidden
    instructions use their genuine x86-64 encodings:
    [wrpkru] = [0F 01 EF], [syscall] = [0F 05]. *)

type t =
  | Nop
  | Ret
  | Halt
  | Jmp of int  (** relative displacement *)
  | Call of int  (** relative displacement *)
  | Mov_imm of int * int  (** register, 32-bit immediate *)
  | Load of int * int  (** register <- [addr] *)
  | Store of int * int  (** [addr] <- register *)
  | Add of int * int  (** reg += reg *)
  | Wrpkru  (** forbidden in untrusted code *)
  | Rdpkru
  | Syscall  (** forbidden in untrusted code *)

val assemble : t list -> bytes
(** Concatenated encoding of an instruction sequence. *)

val decode : bytes -> int -> (t * int) option
(** [decode code off] decodes the instruction at [off], returning it and
    the offset of the next instruction, or [None] on an invalid or
    truncated encoding. *)

val length : t -> int

type forbidden = { offset : int; what : string }

val scan_forbidden : bytes -> forbidden list
(** [scan_forbidden code] finds every occurrence of a forbidden byte
    sequence at {e any} byte offset, aligned with the instruction stream
    or not. An empty result means the image is safe to map executable. *)

val synth_code : ?ops:int -> string -> bytes
(** [synth_code name] deterministically synthesizes a plausible, safe
    instruction stream for a component called [name] — used by the
    builder to give every component a non-trivial code image for the
    loader to scan and measure. *)
