(** Typed telemetry events.

    One variant per observable action of the simulated system, emitted
    onto the {!Bus} at the existing count sites: memory faults and
    trap-and-map retags ({!Fault}, {!Retag}), PKRU writes, trampoline
    calls and returns, window ACL operations, software-TLB activity,
    scheduler slice switches, and pager/journal operations.

    Cubicle and key identifiers are plain [int]s so this library sits
    below [hw] and [cubicle] in the dependency order; the exporters take
    a naming function to render them. *)

type access = Read | Write | Exec
type fault_reason = Not_present | Page_perm | Key_perm

type window_op =
  | Init
  | Extend
  | Add
  | Remove
  | Open
  | Forward  (** a holder of the window extended the grant to a third cubicle *)
  | Close
  | Close_all
  | Destroy
  | Downgrade  (** an RW grant downgraded to read-only in place *)
  | Open_dedicated
  | Close_dedicated

type tlb_op = Hit | Miss | Flush | Invalidate

type pager_op =
  | Cache_hit
  | Cache_miss
  | Evict
  | Page_read
  | Page_write
  | Commit
  | Rollback
  | Wal_append
  | Checkpoint

type t =
  | Fault of { addr : int; access : access; key : int; reason : fault_reason; resolved : bool }
      (** A protection fault delivered by the machine; [resolved] is
          whether the handler fixed it (trap-and-map). *)
  | Retag of { page : int; to_key : int }  (** Trap-and-map key reassignment. *)
  | Key_fault_in of { cid : int; vkey : int; phys : int }
      (** Key virtualisation: [cid]'s virtual key [vkey] was bound to
          physical MPK tag [phys] (libmpk-style reassignment). The
          replay plane uses these to mirror the virtual→physical map so
          a recycled physical tag never aliases two tenants. *)
  | Key_evict of { cid : int; vkey : int; phys : int; pages : int }
      (** Key virtualisation: [cid]'s binding to [phys] was evicted to
          make room; [pages] of its pages were retagged back to the
          monitor. *)
  | Pkru_write of { value : int }
  | Call of { caller : int; callee : int; sym : string }
      (** Cross-cubicle trampoline entry (paired with {!Return}). *)
  | Return of { caller : int; callee : int; sym : string }
  | Shared_call of { caller : int; sym : string }
      (** Call into a shared cubicle (caller's privileges, no trampoline). *)
  | Guard_fetch of { cid : int; sym : string }
      (** Instruction fetch of a trampoline guard entry. *)
  | Rejected of { cid : int }  (** A caught CFI / isolation violation. *)
  | Window of {
      cid : int;
      op : window_op;
      wid : int;
      peer : int;
      ptr : int;
      size : int;
      rw : bool;
    }
      (** A window ACL operation that succeeded. [wid] identifies the
          window within the owner; [peer] is the grantee for
          open/close-style ops (-1 otherwise); [ptr]/[size] carry the
          range for add/remove (0 otherwise); [rw] is the grant's
          permission for [Add] ([false] = read-only; [true] and
          meaningless for non-grant ops). Rich enough that an offline
          consumer (the CubiCheck replay plane) can mirror the full
          window ACL state, permissions included. *)
  | Window_access of { cid : int; owner : int; page : int; access : access }
      (** A checked memory access by [cid] touching a page owned by a
          {e different} cubicle — the raw material for the replay
          plane's race / use-after-close detection. Emitted from the
          {!Api} access helpers only while tracing, and never charged:
          traced and untraced runs stay cycle-identical. *)
  | Tlb of tlb_op
  | Sched_switch of { tid : int; cid : int }
  | Pager of pager_op
  | Mark of string  (** Free-form phase marker (benchmark harness). *)

val access_name : access -> string
val reason_name : fault_reason -> string
val window_op_name : window_op -> string
val tlb_op_name : tlb_op -> string
val pager_op_name : pager_op -> string
