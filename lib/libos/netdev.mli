(** The NETDEV component: a ring-buffer network device.

    Device-side, frames pass through ring slots owned by the NETDEV
    cubicle; callers exchange frame payloads with NETDEV through
    checked copies (so the caller must window its frame buffers to
    NETDEV). Host-side, a bridge injects and collects raw frames with
    DMA-like privileged access, standing in for the wire. Each frame
    movement charges {!Sysdefs.nic_frame_cycles}.

    The device can expose several independent rx/tx ring pairs
    ([make ~nrings]) — the hardware half of SO_REUSEPORT-style accept
    sharding: each SMP httpd worker drives its own ring, and the host
    bridge steers each connection's frames to one ring (RSS by
    connection id). Each ring has its own DMA staging slot, so
    concurrent workers never alias the staging page. *)

type state

val make : ?nrings:int -> unit -> state * Cubicle.Builder.component
(** Exports: [netdev_tx(buf,len[,ring])] → 0,
    [netdev_rx(buf,maxlen[,ring])] → received length or 0 when no frame
    is pending on that ring. The ring argument defaults to 0, so
    single-ring callers are unchanged. Default [nrings] is 1. *)

(** {1 Host bridge (the wire; trusted, outside the cubicle system)} *)

val host_inject : ?ring:int -> state -> bytes -> unit
(** Queue a frame for the device to receive on [ring] (default 0).
    Raises [Invalid_argument], leaving the ring unchanged, for a frame
    the device cannot carry: shorter than {!Sysdefs.frame_header} (its
    header would be read from the previous frame's leftovers in the
    staging page) or longer than {!Sysdefs.mtu}. *)

val host_drain : state -> (bytes -> int -> int -> unit) -> unit
(** [host_drain state f] hands every frame the device has transmitted
    to [f] as a [(buf, off, len)] slice, ring by ring and in transmit
    order within a ring, then empties the wire. [len] is the length
    NETDEV transmitted, not one re-read from the frame header. Each
    ring's frames sit back to back in the chunks of one arena the
    device reuses, so a slice is valid only until [f] returns: copy
    what must outlive it.
    If [f] raises, the wire is emptied before the exception goes on. *)

val host_collect : state -> bytes list
(** {!host_drain}, with each frame copied out: every ring's frames,
    oldest first within a ring. *)

val rx_frames : state -> int
