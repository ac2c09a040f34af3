(** The UKFAT component: a FAT-like persistent file system backend over
    the BLKDEV component.

    A second file system backend next to RAMFS, registered with VFSCORE
    under the same fs_ops callback interface (backend tag 2) —
    demonstrating the component modularity CubicleOS inherits from
    Unikraft: the deployer swaps backends without touching VFSCORE or
    applications.

    On-disk layout (512-byte sectors, 4 KiB clusters):
    - sector 0: superblock (magic, cluster count, root size);
    - a 16-bit FAT (0 = free, 0xFFFF = end of chain);
    - a flat root directory of fixed 32-byte entries;
    - the data clusters.
    Metadata updates are write-through; a freshly attached disk with no
    valid superblock is formatted on mount. File contents survive
    reboots of the whole simulated system ({!Blkdev.disk} can be
    re-attached). *)

type state

val make : unit -> state * Cubicle.Builder.component
(** Exports the fs_ops callback table under the "fatfs" prefix:
    [fatfs_lookup], [fatfs_create], [fatfs_pread], [fatfs_pwrite],
    [fatfs_size], [fatfs_truncate], [fatfs_fsync], [fatfs_unlink],
    [fatfs_rename]. Requires a BLKDEV cubicle in the system. *)

val file_count : state -> int
val free_clusters : state -> int
