module Str_tbl = Hashtbl.Make (String)

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
  (* counter plane: always on; a crossing bumps two array slots, so it
     neither hashes nor allocates once its edge row has grown *)
  mutable faults : int;
  mutable retags : int;
  mutable window_ops : int;
  mutable rejected : int;
  mutable shared : int;
  mutable edges : int array array;  (* caller -> callee -> calls *)
  sym_ids : int Str_tbl.t;  (* symbol name -> id, interned at registration *)
  mutable sym_calls : int array;  (* symbol id -> calls *)
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
    edges = [||];
    sym_ids = Str_tbl.create 64;
    sym_calls = [||];
  }

let tracing t = t.tracing
let set_tracing t b = t.tracing <- b

let set_sampling t ~every =
  if every < 1 then invalid_arg "Bus.set_sampling: every must be >= 1";
  t.every <- every;
  t.countdown <- 1 (* the next emission is kept, deterministically *)

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

(* [a] with at least [n] slots, the new ones set to [fill]; doubling
   keeps growth amortised. *)
let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let intern_sym t sym =
  match Str_tbl.find_opt t.sym_ids sym with
  | Some id -> id
  | None ->
      let id = Str_tbl.length t.sym_ids in
      Str_tbl.replace t.sym_ids sym id;
      t.sym_calls <- grow t.sym_calls (id + 1) 0;
      id

let bump_sym t sid = t.sym_calls.(sid) <- t.sym_calls.(sid) + 1

let bump_edge t caller callee =
  if caller >= Array.length t.edges then t.edges <- grow t.edges (caller + 1) [||];
  let row = t.edges.(caller) in
  let row =
    if callee < Array.length row then row
    else begin
      let r = grow row (callee + 1) 0 in
      t.edges.(caller) <- r;
      r
    end
  in
  row.(callee) <- row.(callee) + 1

let observe_call t ~caller ~callee =
  match t.lat with Some l -> Latency.on_call l ~caller ~callee ~at:(t.now ()) | None -> ()

let observe_return t ~caller ~callee =
  match t.lat with Some l -> Latency.on_return l ~caller ~callee ~at:(t.now ()) | None -> ()

let count_call t ~caller ~callee ~sym ~sid =
  bump_edge t caller callee;
  bump_sym t sid;
  observe_call t ~caller ~callee;
  if t.tracing then emit t (Event.Call { caller; callee; sym })

let count_return t ~caller ~callee ~sym =
  observe_return t ~caller ~callee;
  if t.tracing then emit t (Event.Return { caller; callee; sym })

let count_shared_call t ~caller ~sym ~sid =
  t.shared <- t.shared + 1;
  bump_sym t sid;
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
  if caller < 0 || caller >= Array.length t.edges then 0
  else
    let row = t.edges.(caller) in
    if callee < 0 || callee >= Array.length row then 0 else row.(callee)

let calls_to_sym t sym =
  match Str_tbl.find_opt t.sym_ids sym with Some id -> t.sym_calls.(id) | None -> 0

(* Fold over every edge with at least one call, in (caller, callee)
   order. *)
let fold_edges f t init =
  let acc = ref init in
  Array.iteri
    (fun caller row ->
      Array.iteri (fun callee n -> if n > 0 then acc := f ~caller ~callee n !acc) row)
    t.edges;
  !acc

let calls_into t callee =
  fold_edges (fun ~caller:_ ~callee:ce n acc -> if ce = callee then acc + n else acc) t 0

let total_calls t = fold_edges (fun ~caller:_ ~callee:_ n acc -> acc + n) t 0

(* By count descending; the fold's order breaks ties by (caller, callee)
   under the stable sort. *)
let edges t =
  fold_edges (fun ~caller ~callee n acc -> ((caller, callee), n) :: acc) t []
  |> List.rev
  |> List.stable_sort (fun (_, n) (_, n') -> Int.compare n' n)

let snapshot_edges t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (e, n) -> Hashtbl.replace tbl e n) (edges t);
  tbl

let reset_counters t =
  t.faults <- 0;
  t.retags <- 0;
  t.window_ops <- 0;
  t.rejected <- 0;
  t.shared <- 0;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.edges;
  Array.fill t.sym_calls 0 (Array.length t.sym_calls) 0
