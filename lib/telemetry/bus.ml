type entry = { at : int; core : int; seq : int; ev : Event.t }

type t = {
  mutable tracing : bool;
  now : unit -> int;
  ring_capacity : int;
  (* one event track per simulated core; a chatty core can only evict
     its own history. [seq] is the global emission order, so merging
     the tracks reproduces the exact interleaving. *)
  rings : entry Ring.t array;
  ctx : Attrib.t;  (* [ctx.cur_core] is the emitting core *)
  mutable seq : int;
  (* event-plane sampling: keep 1 in [every] emissions (1 = keep all).
     [countdown] is the distance to the next kept event. *)
  mutable every : int;
  mutable countdown : int;
  mutable sampled_out : int;
  (* streamed export: a sink sees exactly the entries the ring keeps *)
  mutable sink : (entry -> unit) option;
  (* latency plane: fed from the counter-plane call sites, never from
     the ring, so it is exact under sampling and ring wrap *)
  mutable lat : Latency.t option;
  (* counter plane: always on, allocation-free (the hashtable bumps
     replace existing bindings after first touch) *)
  mutable faults : int;
  mutable retags : int;
  mutable window_ops : int;
  mutable rejected : int;
  mutable shared : int;
  edges : (int * int, int) Hashtbl.t;
  syms : (string, int) Hashtbl.t;
}

let default_capacity = 65536
let dummy_entry = { at = 0; core = 0; seq = 0; ev = Event.Mark "" }

let create ?(capacity = default_capacity) ?(now = fun () -> 0) ?(ctx = Attrib.create ()) () =
  {
    tracing = false;
    now;
    ring_capacity = capacity;
    rings =
      Array.init (Attrib.ncores ctx) (fun _ -> Ring.create ~capacity ~dummy:dummy_entry);
    ctx;
    seq = 0;
    every = 1;
    countdown = 1;
    sampled_out = 0;
    sink = None;
    lat = None;
    faults = 0;
    retags = 0;
    window_ops = 0;
    rejected = 0;
    shared = 0;
    edges = Hashtbl.create 64;
    syms = Hashtbl.create 64;
  }

let tracing t = t.tracing
let set_tracing t b = t.tracing <- b

let set_sampling t ~every =
  if every < 1 then invalid_arg "Bus.set_sampling: every must be >= 1";
  t.every <- every;
  t.countdown <- 1 (* the next emission is kept, deterministically *)

let sampling t = t.every
let sampled_out t = t.sampled_out
let set_sink t f = t.sink <- f
let set_latency t l = t.lat <- l
let latency t = t.lat

let[@inline] emit t ev =
  if t.tracing then begin
    t.countdown <- t.countdown - 1;
    if t.countdown <= 0 then begin
      t.countdown <- t.every;
      (* one track per core of [ctx], so [cur_core] is in bounds *)
      let core = t.ctx.Attrib.cur_core in
      let e = { at = t.now (); core; seq = t.seq; ev } in
      t.seq <- t.seq + 1;
      Ring.push (Array.unsafe_get t.rings core) e;
      match t.sink with None -> () | Some f -> f e
    end
    else t.sampled_out <- t.sampled_out + 1
  end

let sum f t = Array.fold_left (fun acc r -> acc + f r) 0 t.rings

let events t =
  match t.rings with
  | [| r |] -> Ring.to_list r
  | rings ->
      Array.to_list rings
      |> List.concat_map Ring.to_list
      |> List.sort (fun (a : entry) (b : entry) -> compare a.seq b.seq)

let iter_events f t =
  match t.rings with [| r |] -> Ring.iter f r | _ -> List.iter f (events t)

let captured t = sum Ring.length t
let dropped t = sum Ring.dropped t
let total_emitted t = sum Ring.total t

let clear_ring t =
  Array.iter Ring.clear t.rings;
  t.seq <- 0;
  t.sampled_out <- 0;
  t.countdown <- 1

let capacity t = t.ring_capacity

(* --- counter plane ------------------------------------------------------ *)

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let observe_call t ~caller ~callee =
  match t.lat with Some l -> Latency.on_call l ~caller ~callee ~at:(t.now ()) | None -> ()

let observe_return t ~caller ~callee =
  match t.lat with Some l -> Latency.on_return l ~caller ~callee ~at:(t.now ()) | None -> ()

let count_call t ~caller ~callee ~sym =
  bump t.edges (caller, callee);
  bump t.syms sym;
  observe_call t ~caller ~callee;
  if t.tracing then emit t (Event.Call { caller; callee; sym })

let count_return t ~caller ~callee ~sym =
  observe_return t ~caller ~callee;
  if t.tracing then emit t (Event.Return { caller; callee; sym })

let count_shared_call t ~caller ~sym =
  t.shared <- t.shared + 1;
  bump t.syms sym;
  if t.tracing then emit t (Event.Shared_call { caller; sym })

let count_fault t = t.faults <- t.faults + 1
let count_retag t = t.retags <- t.retags + 1
let count_window_op t = t.window_ops <- t.window_ops + 1
let count_rejected t = t.rejected <- t.rejected + 1

let faults t = t.faults
let retags t = t.retags
let window_ops t = t.window_ops
let rejected t = t.rejected
let shared_calls t = t.shared

let calls_between t ~caller ~callee =
  Option.value ~default:0 (Hashtbl.find_opt t.edges (caller, callee))

let calls_into t callee =
  Hashtbl.fold (fun (_, ce) n acc -> if ce = callee then acc + n else acc) t.edges 0

let calls_to_sym t sym = Option.value ~default:0 (Hashtbl.find_opt t.syms sym)
let total_calls t = Hashtbl.fold (fun _ n acc -> acc + n) t.edges 0

let edges t =
  Hashtbl.fold (fun e n acc -> (e, n) :: acc) t.edges []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let snapshot_edges t = Hashtbl.copy t.edges

let reset_counters t =
  t.faults <- 0;
  t.retags <- 0;
  t.window_ops <- 0;
  t.rejected <- 0;
  t.shared <- 0;
  Hashtbl.reset t.edges;
  Hashtbl.reset t.syms
