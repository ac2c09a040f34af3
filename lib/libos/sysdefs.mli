(** System-wide constants and error codes shared by the library OS
    components (errno-style negative returns, network framing, and the
    calibrated cost constants of the network path). *)

val ok : int
val enoent : int
val eexist : int
val ebadf : int
val einval : int
val eagain : int

val mtu : int
(** Maximum frame payload carried by NETDEV (Ethernet-like, 1514). *)

val mss : int
(** Maximum TCP segment payload (1460). *)

val frame_header : int
(** Bytes of the LWIP-lite frame header:
    [conn u32][kind u8][seq u32][len u16]. *)

val send_buffer : int
(** LWIP per-connection send buffer (64 KiB); transfers larger than
    this stall for window acknowledgements, which is what bends the
    latency curve of the paper's Figure 7 after 64 kB. *)

val nic_frame_cycles : int
(** Per-frame driver + wire cost charged by NETDEV. *)

val rtt_stall_cycles : int
(** Cost of draining a full send buffer (one ack round trip). *)

val request_overhead_cycles : int
(** Fixed client-side per-request latency (connection setup, siege
    think time): the ~5 ms floor of Figure 7. *)

val fsync_cycles : int
(** Flush cost charged by RAMFS on fsync (RAM-backed, so small). *)
