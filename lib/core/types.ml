(** Shared identifiers, enumerations and refusals of the CubicleOS core. *)

type cid = int
(** Cubicle identifier; assigned densely at load time, known at link
    time (paper §5.3: O(1) bitmask indexing relies on this). *)

type wid = int
(** Window identifier, unique within its owning cubicle. *)

type kind =
  | Isolated  (** own MPK tag, entered only via trampolines *)
  | Shared
      (** e.g. LIBC: static data shared with everyone; calls execute
          with the caller's privileges, stack and heap *)
  | Trusted  (** monitor and other TCB cubicles: access to all tags *)

type protection =
  | None_  (** baseline Unikraft: plain calls, no isolation *)
  | Trampolines  (** "CubicleOS w/o MPK": calls + stack switches only *)
  | Mpk  (** "CubicleOS w/o ACLs": MPK on, all windows open *)
  | Full  (** complete CubicleOS *)

type batch = Ranges | Peers  (** the list an empty batch call was given *)

(** The rules the monitor, the window tables, the trampolines and the
    loader enforce: one constructor per rule, carrying exactly the
    values its message names. *)
type denial =
  (* cubicles *)
  | No_cubicle of cid
  | No_cubicle_named of string
  | Duplicate_cubicle of string
  | Too_many_cubicles
  | Out_of_keys of { dedicated : bool }
      (** no physical tag left for an isolated cubicle, or for a
          window-specific tag *)
  | Destroy_monitor
  | Destroy_running
  (* calls and code (§5.4) *)
  | Duplicate_symbol of string
  | Unresolved_symbol of string  (** the CFI check of a crossing *)
  | No_thunk of string
  | No_guard of { cid : cid; sym : string }
  | Forbidden_code of { image : string; hits : Hw.Instr.forbidden list }
      (** the loader's binary scan found [syscall]/[wrpkru] bytes *)
  (* memory *)
  | Foreign_free of { name : string; addr : int }
  | Run_not_owned of { cid : cid; base : int }
  | Not_allocation_base of int
  (* windows (§5.6) *)
  | Bad_range_size of { wid : wid; size : int }
  | Foreign_page of { page : int; owner : cid; cid : cid }
  | Unowned_page of int
  | Wrong_class of {
      page : int;
      page_class : Mm.Page_meta.kind;
      wid : wid;
      window_class : Mm.Page_meta.kind;
    }
  | Empty_batch of batch
  | Window_to_self of { dedicated : bool }
  | Forward_to_owner of { owner : cid; wid : wid }
  | Not_open_for_forwarder of { wid : wid; owner : cid; forwarder : cid }
  | Dedicated_virtualised
  | Descriptors_full of { cid : cid; klass : Mm.Page_meta.kind; capacity : int }
  | No_window of { wid : wid; cid : cid }
  | Window_destroyed of wid
  | No_range_at of { wid : wid; ptr : int }

exception Denied of denial
(** A refusal by the CubicleOS core (not a memory fault). Printed by
    {!Printexc} with its {!denial_message}. *)


let denial_message = function
  | No_cubicle cid -> Printf.sprintf "no cubicle with id %d" cid
  | No_cubicle_named name -> Printf.sprintf "no cubicle named %s" name
  | Duplicate_cubicle name -> Printf.sprintf "cubicle %s already exists" name
  | Too_many_cubicles -> "too many cubicles"
  | Out_of_keys { dedicated = false } ->
      "out of MPK protection keys (15 in use); enable tag virtualisation (libmpk-style) to \
       run more isolated cubicles"
  | Out_of_keys { dedicated = true } ->
      "out of MPK protection keys: window-specific tags consume one tag per shared buffer \
       and exhaust the 16 keys quickly (paper §5.6)"
  | Destroy_monitor -> "cannot destroy the monitor"
  | Destroy_running -> "cannot destroy the executing cubicle"
  | Duplicate_symbol sym -> Printf.sprintf "duplicate export symbol %s" sym
  | Unresolved_symbol sym ->
      Printf.sprintf "cross-cubicle call to unresolved symbol %s (CFI)" sym
  | No_thunk sym -> Printf.sprintf "no trampoline thunk for symbol %s" sym
  | No_guard { cid; sym } -> Printf.sprintf "no guard entry for cubicle %d, symbol %s" cid sym
  | Forbidden_code { image; hits } ->
      Printf.sprintf "image %s: forbidden code at %s" image
        (String.concat ", "
           (List.map (fun { Hw.Instr.offset; what } -> Printf.sprintf "%s@%d" what offset) hits))
  | Foreign_free { name; addr } ->
      Printf.sprintf "cubicle %s: free of foreign pointer 0x%x" name addr
  | Run_not_owned { cid; base } ->
      Printf.sprintf "free_pages: cubicle %d does not own 0x%x" cid base
  | Not_allocation_base base -> Printf.sprintf "free_pages: 0x%x is not an allocation base" base
  | Bad_range_size { wid; size } -> Printf.sprintf "window %d: non-positive range size %d" wid size
  | Foreign_page { page; owner; cid } ->
      Printf.sprintf "window_add: page %d belongs to cubicle %d, not %d" page owner cid
  | Unowned_page page -> Printf.sprintf "window_add: page %d is unowned" page
  | Wrong_class { page; page_class; wid; window_class } ->
      Printf.sprintf "window_add: page %d is %s data but window %d holds %s data" page
        (Mm.Page_meta.kind_to_string page_class) wid
        (Mm.Page_meta.kind_to_string window_class)
  | Empty_batch Ranges -> "window_add_ranges: empty range list"
  | Empty_batch Peers -> "window_open_many: empty peer list"
  | Window_to_self { dedicated = false } -> "window_open: cannot open a window to oneself"
  | Window_to_self { dedicated = true } -> "window_open_dedicated: cannot open to oneself"
  | Forward_to_owner { owner; wid } ->
      Printf.sprintf "window_forward: cubicle %d already owns window %d" owner wid
  | Not_open_for_forwarder { wid; owner; forwarder } ->
      Printf.sprintf "window_forward: window %d of cubicle %d is not open for forwarder %d" wid
        owner forwarder
  | Dedicated_virtualised -> "window-specific tags are not supported with tag virtualisation"
  | Descriptors_full { cid; klass; capacity } ->
      Printf.sprintf "cubicle %d: %s window descriptor array is full (%d entries); extend it first"
        cid (Mm.Page_meta.kind_to_string klass) capacity
  | No_window { wid; cid } -> Printf.sprintf "window %d not found in cubicle %d" wid cid
  | Window_destroyed wid -> Printf.sprintf "window %d was destroyed" wid
  | No_range_at { wid; ptr } -> Printf.sprintf "window %d: no range starts at 0x%x" wid ptr

let () =
  Printexc.register_printer (function
    | Denied d -> Some (Printf.sprintf "Cubicle.Types.Denied(%S)" (denial_message d))
    | _ -> None)

exception Error of string
(** An application error of the library OS, minidb or httpd (not an
    isolation decision). *)

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let kind_to_string = function
  | Isolated -> "isolated"
  | Shared -> "shared"
  | Trusted -> "trusted"

let protection_to_string = function
  | None_ -> "baseline"
  | Trampolines -> "w/o MPK"
  | Mpk -> "w/o ACLs"
  | Full -> "full"
