type access = Read | Write | Exec
type fault_reason = Not_present | Page_perm | Key_perm

type window_op =
  | Init
  | Extend
  | Add
  | Remove
  | Open
  | Forward
  | Close
  | Close_all
  | Destroy
  | Downgrade
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
  | Retag of { page : int; to_key : int }
  | Key_fault_in of { cid : int; vkey : int; phys : int }
  | Key_evict of { cid : int; vkey : int; phys : int; pages : int }
  | Pkru_write of { value : int }
  | Call of { caller : int; callee : int; sym : string }
  | Return of { caller : int; callee : int; sym : string }
  | Shared_call of { caller : int; sym : string }
  | Guard_fetch of { cid : int; sym : string }
  | Rejected of { cid : int }
  | Window of {
      cid : int;
      op : window_op;
      wid : int;
      peer : int;
      ptr : int;
      size : int;
      rw : bool;  (** grant permission: [false] for read-only [Add] ranges *)
    }
  | Window_access of { cid : int; owner : int; page : int; access : access }
  | Tlb of tlb_op
  | Sched_switch of { tid : int; cid : int }
  | Pager of pager_op
  | Mark of string

let access_name = function Read -> "read" | Write -> "write" | Exec -> "exec"

let reason_name = function
  | Not_present -> "not_present"
  | Page_perm -> "page_perm"
  | Key_perm -> "key_perm"

let window_op_name = function
  | Init -> "init"
  | Extend -> "extend"
  | Add -> "add"
  | Remove -> "remove"
  | Open -> "open"
  | Forward -> "forward"
  | Close -> "close"
  | Close_all -> "close_all"
  | Destroy -> "destroy"
  | Downgrade -> "downgrade"
  | Open_dedicated -> "open_dedicated"
  | Close_dedicated -> "close_dedicated"

let tlb_op_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Flush -> "flush"
  | Invalidate -> "invalidate"

let pager_op_name = function
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Evict -> "evict"
  | Page_read -> "page_read"
  | Page_write -> "page_write"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Wal_append -> "wal_append"
  | Checkpoint -> "checkpoint"
