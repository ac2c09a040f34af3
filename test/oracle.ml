(* Reference answers computed the slow, obvious way, for tests to hold
   the library's indexed structures against. *)

(* Every page owned by [cid], ascending: a scan of the whole page
   metadata map. *)
let pages_owned_by meta ~npages cid =
  List.filter (fun p -> Mm.Page_meta.owner meta p = Some cid) (List.init npages Fun.id)

let monitor_pages_owned_by mon cid =
  pages_owned_by (Cubicle.Monitor.meta mon)
    ~npages:(Hw.Cpu.npages (Cubicle.Monitor.cpu mon))
    cid
