(* Per-edge call-latency sink: pairs call/return observations into one
   {!Hist} per caller->callee edge. Fed by the bus's counter-plane call
   sites (and the ukernel's RPC layer), NOT by the event ring, so the
   recorded distribution is exact regardless of ring capacity or
   event-plane sampling. *)

type pending = { p_caller : int; p_callee : int; p_at : int }

type t = {
  tbl : (int * int, Hist.t) Hashtbl.t;
  mutable stack : pending list;  (* in-flight calls, innermost first *)
  mutable unmatched : int;
}

let create () = { tbl = Hashtbl.create 16; stack = []; unmatched = 0 }

let on_call t ~caller ~callee ~at =
  t.stack <- { p_caller = caller; p_callee = callee; p_at = at } :: t.stack

let hist_for t edge =
  match Hashtbl.find_opt t.tbl edge with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.tbl edge h;
      h

let on_return t ~caller ~callee ~at =
  (* The machine models one hardware thread and returns are observed
     even when the callee raises, so the matching frame is normally the
     head; scan deeper only to survive a sink attached mid-call. *)
  let rec pop = function
    | [] -> None
    | p :: rest when p.p_caller = caller && p.p_callee = callee -> Some (p, rest)
    | p :: rest -> (
        match pop rest with Some (q, rest') -> Some (q, p :: rest') | None -> None)
  in
  match pop t.stack with
  | None -> t.unmatched <- t.unmatched + 1
  | Some (p, rest) ->
      t.stack <- rest;
      Hist.add (hist_for t (caller, callee)) (at - p.p_at)

let edge t ~caller ~callee = Hashtbl.find_opt t.tbl (caller, callee)

let edges t =
  Hashtbl.fold (fun e h acc -> ((e, h) :: acc)) t.tbl []
  |> List.sort (fun ((_, a) : _ * Hist.t) (_, b) -> compare (Hist.count b) (Hist.count a))

let observed t = Hashtbl.fold (fun _ h acc -> acc + Hist.count h) t.tbl 0
let unmatched t = t.unmatched
let in_flight t = List.length t.stack
