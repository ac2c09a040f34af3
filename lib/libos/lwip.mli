(** The LWIP component: a TCP-lite stream stack over NETDEV.

    Connections carry ordered byte streams segmented into MSS-sized
    frames. Per-segment buffers (pbufs) are allocated page-granular
    from the system-wide ALLOC (the paper's Figure 5 shows LWIP as the
    heaviest ALLOC client), windowed to NETDEV for the device copy, and
    freed after use — so in full-protection deployments every segment
    pays allocation, window management and trap-and-map costs, which is
    where NGINX's 2x large-transfer overhead comes from.

    Transfers beyond the 64 KiB send buffer charge an ack round trip
    ({!Sysdefs.rtt_stall_cycles}), bending the latency curve after
    64 kB exactly as the paper's Figure 7 describes. *)

type state

val make : ?nshards:int -> unit -> state * Cubicle.Builder.component
(** Exports: [lwip_listen(port)], [lwip_accept(shard?)] → conn id or
    -EAGAIN, [lwip_recv(conn,buf,maxlen)] → n (0 = nothing pending,
    -EBADF on closed+drained), [lwip_send(conn,buf,len)] → n,
    [lwip_close(conn)].

    [nshards] (default 1) gives the stack that many independent accept
    shards, SO_REUSEPORT style: shard [s] drives NETDEV ring [s]
    through its own staging page and keeps its own accept backlog, so N
    SMP httpd workers can pump frames concurrently. A connection
    belongs to shard [conn mod nshards] (RSS by connection id — the
    host bridge must steer frames accordingly); [lwip_accept]'s
    optional argument selects the shard to pump and pop (default 0). *)

(** {1 Host-side frame protocol (used by test clients / siege)} *)

module Frame : sig
  type kind = Syn | Data | Fin

  val encode : ?seq:int -> conn:int -> kind:kind -> payload:string -> unit -> bytes
  (** Data frames carry a per-connection sequence number; the stack
      delivers segments to the stream strictly in order, parking
      out-of-order arrivals. *)

  val decode_slice : bytes -> off:int -> len:int -> int * kind * int
  (** (connection, kind, sequence) of the frame occupying
      [\[off, off + len)] of the buffer, read in place; its payload is
      the [len - Sysdefs.frame_header] bytes after the header. Raises
      [Invalid_argument] on a malformed frame: shorter than a header,
      of unknown kind, or whose length field disagrees with [len]. *)

  val decode : bytes -> int * kind * int * string
  (** {!decode_slice} over the whole buffer, with the payload copied
      out. *)
end

(** Host-side in-order reassembly of sequenced data frames (used by
    test clients and siege). *)
module Reassembly : sig
  type t

  val create : unit -> t
  val push : t -> seq:int -> string -> unit
  val pop_ready : t -> string
  (** The consecutive bytes accumulated so far (consumed). *)

  val push_with :
    t ->
    seq:int ->
    deliver:(bytes -> int -> int -> unit) ->
    bytes ->
    off:int ->
    len:int ->
    unit
  (** Like {!push} for the payload slice [\[off, off + len)], but each
      payload that becomes in-order is handed to [deliver] as a
      [(buf, off, len)] slice, in stream order, instead of accumulating
      for {!pop_ready}: a reader can copy the stream straight to where
      it belongs. The next payload in sequence is handed over in place,
      without a copy; only one that arrives early is copied to wait for
      its gap. [deliver] only reads its slice, and only until it
      returns. Duplicates and stale frames are dropped as by {!push}. *)

  val pending : t -> int
  (** Frames parked waiting for a gap to fill. *)
end
