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

val nrings : state -> int

(** {1 Host bridge (the wire; trusted, outside the cubicle system)} *)

val host_inject : ?ring:int -> state -> bytes -> unit
(** Queue a frame for the device to receive on [ring] (default 0). *)

val host_collect : state -> bytes list
(** Drain all frames the device has transmitted, every ring, oldest
    first within a ring. *)

val rx_frames : state -> int
