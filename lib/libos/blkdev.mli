(** The BLKDEV component: a sector-addressed block device.

    Mirrors Unikraft's uk_blkdev: callers exchange sector data with the
    device through checked copies (so they must window their buffers to
    BLKDEV), and a DMA staging page moves data to/from the backing
    store. The backing store (the "disk") lives host-side and can be
    detached and re-attached to a different booted system — which is
    how persistence across reboots is tested. *)

type disk

val create_disk : sectors:int -> disk
(** A zeroed disk. *)

val sector_size : int
(** 512 bytes. *)

type state

val make : disk -> state * Cubicle.Builder.component
(** Exports: [blk_read(buf,sector,n)] → 0, [blk_write(buf,sector,n)] →
    0, [blk_capacity()] → total sectors. Each transfer charges a
    per-sector device cost. *)

val writes : state -> int
