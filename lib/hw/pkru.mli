(** The PKRU register: per-thread access permissions for the 16 MPK keys.

    Two bits per key, exactly as in the Intel SDM: bit [2k] is AD
    (access disable), bit [2k+1] is WD (write disable). A key with AD set
    can neither be read nor written; a key with only WD set is read-only.

    Values are immutable ints; the machine's live register is only ever
    installed through {!Cpu.wrpkru}, which is therefore the single
    point where PKRU changes flush the software TLB ({!Tlb}). *)

type t = int
(** 32-bit register value. *)

val nkeys : int
(** Number of protection keys (16). *)

val all_allow : t
(** Every key readable and writable (register value 0). *)

val all_deny : t
(** Every key fully disabled. *)

val deny : t -> int -> t
(** [deny r k] disables all access to key [k]. *)

val allow : t -> int -> t
(** [allow r k] grants read and write access to key [k]. *)

val allow_read_only : t -> int -> t
(** [allow_read_only r k] grants read access to key [k] and disables
    writes. *)

val can_read : t -> int -> bool
val can_write : t -> int -> bool

val of_keys : int list -> t
(** [of_keys ks] denies everything except read/write on the keys in
    [ks]. *)
