(* A read-side view over the telemetry bus: the monitor counts straight
   into Telemetry.Bus's always-on counter plane, and every getter here
   delegates to it. TLB counters are summed live over every core's
   Hw.Tlb.t, so they can never go stale. *)

type t = { bus : Telemetry.Bus.t; tlbs : Hw.Tlb.t list }
type snapshot = (Types.cid * Types.cid, int) Hashtbl.t

let of_bus ?(tlbs = []) bus = { bus; tlbs }

let reset t =
  Telemetry.Bus.reset_counters t.bus;
  List.iter Hw.Tlb.reset_counters t.tlbs

let sum f t = List.fold_left (fun n tlb -> n + f tlb) 0 t.tlbs
let tlb_hits = sum Hw.Tlb.hits
let tlb_misses = sum Hw.Tlb.misses
let tlb_flushes = sum Hw.Tlb.flushes

let tlb_hit_rate t =
  let total = tlb_hits t + tlb_misses t in
  if total = 0 then 0. else float_of_int (tlb_hits t) /. float_of_int total

let calls_between t ~caller ~callee = Telemetry.Bus.calls_between t.bus ~caller ~callee
let calls_into t callee = Telemetry.Bus.calls_into t.bus callee
let calls_to_sym t sym = Telemetry.Bus.calls_to_sym t.bus sym
let total_calls t = Telemetry.Bus.total_calls t.bus
let shared_calls t = Telemetry.Bus.shared_calls t.bus
let faults t = Telemetry.Bus.faults t.bus
let retags t = Telemetry.Bus.retags t.bus
let window_ops t = Telemetry.Bus.window_ops t.bus
let rejected t = Telemetry.Bus.rejected t.bus
let edges t = Telemetry.Bus.edges t.bus
let snapshot t = Telemetry.Bus.snapshot_edges t.bus

let diff_edges t ~since =
  edges t
  |> List.filter_map (fun (e, n) ->
         let before = Option.value ~default:0 (Hashtbl.find_opt since e) in
         if n - before > 0 then Some (e, n - before) else None)
