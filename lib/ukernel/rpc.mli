(** Genode-style session RPC over a message buffer.

    The message-based interface of the paper's Figure 1b: arguments and
    data are marshalled into a shared message buffer, the kernel
    switches to the server, the dispatcher unmarshals and executes, and
    the reply travels back the same way. Every byte of payload is
    physically copied through a simulated-memory message page in each
    direction — the copy overhead that CubicleOS's windows avoid. *)

type t

val create : Cubicle.Monitor.ctx -> Kernel.t -> t
(** Allocates the session's message buffer page. *)

val call : t -> payload:int -> (unit -> 'a) -> 'a
(** One RPC round trip: marshal [payload] bytes in, kernel switch,
    run the server-side body, marshal the reply out, switch back. *)

val signal : t -> unit
(** One asynchronous signal delivery (packet-stream acknowledgement). *)

val copy_in : t -> bytes -> unit
(** Stage host-side data through the message buffer (charged copy). *)

val copy_in_sub : t -> bytes -> pos:int -> len:int -> unit
(** [copy_in_sub t data ~pos ~len] stages [data.[pos .. pos+len-1]],
    charged like [copy_in t (Bytes.sub data pos len)]. *)

val copy_out : t -> int -> bytes
(** Read data back out of the message buffer (charged copy). *)

val rpc_count : t -> int
