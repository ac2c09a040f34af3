(** Memory protection faults raised by the simulated machine. *)

type access = Read | Write | Exec

type reason =
  | Not_present  (** page not mapped *)
  | Page_perm  (** page-level R/W/X denied the access *)
  | Key_perm  (** PKRU denied the access for the page's key *)

type t = { addr : int; access : access; key : int; reason : reason }

exception Violation of t * string
(** Raised when no fault handler resolves the fault: the simulated
    equivalent of a fatal SIGSEGV. The string names the failing
    subsystem or cubicle for diagnostics. *)

val pp : Format.formatter -> t -> unit
val violation : t -> 'a
