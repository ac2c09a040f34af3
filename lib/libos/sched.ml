open Cubicle

type _ Effect.t += Yield : unit Effect.t

type tid = int

type thread = {
  tid : tid;
  cid : Types.cid;
  body : unit -> unit;  (* used only for the first slice *)
  mutable last_core : int;  (* core of the previous slice; -1 before the first *)
}

type runnable =
  | Fresh of thread
  | Resumed of thread * (unit, unit) Effect.Deep.continuation

type t = {
  mon : Monitor.t;
  queues : runnable Queue.t array;  (* one run queue per simulated core *)
  mutable next_tid : int;
  mutable switches : int;
  mutable migrations : int;  (* slices run on a different core than the thread's last *)
  mutable steals : int;  (* slices an idle core took from another core's queue *)
  mutable running : bool;
}

let create ?ncores mon =
  let machine_cores = Hw.Cpu.ncores (Monitor.cpu mon) in
  let ncores = Option.value ~default:machine_cores ncores in
  if ncores < 1 || ncores > machine_cores then
    invalid_arg
      (Printf.sprintf "Sched.create: ncores %d out of range (machine has %d)" ncores
         machine_cores);
  {
    mon;
    queues = Array.init ncores (fun _ -> Queue.create ());
    next_tid = 1;
    switches = 0;
    migrations = 0;
    steals = 0;
    running = false;
  }

let ncores t = Array.length t.queues

let least_loaded t =
  let best = ref 0 in
  for c = 1 to ncores t - 1 do
    if Queue.length t.queues.(c) < Queue.length t.queues.(!best) then best := c
  done;
  !best

let spawn ?core t cid body =
  let core =
    match core with
    | None -> least_loaded t
    | Some c ->
        if c < 0 || c >= ncores t then
          invalid_arg (Printf.sprintf "Sched.spawn: no core %d" c);
        c
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  Queue.push (Fresh { tid; cid; body; last_core = -1 }) t.queues.(core);
  tid

let current_scheduler : t option ref = ref None

let yield () =
  match !current_scheduler with
  | Some _ -> Effect.perform Yield
  | None -> invalid_arg "Sched.yield: not inside a scheduler thread"

(* Run one slice of a thread on [core] under its cubicle's PKRU; a
   Yield effect parks the continuation on the run queue of the core it
   yielded on. The continuation is resumed under the handler installed
   at the thread's first slice. *)
let slice t core runnable =
  let thread = match runnable with Fresh th | Resumed (th, _) -> th in
  t.switches <- t.switches + 1;
  if thread.last_core >= 0 && thread.last_core <> core then
    t.migrations <- t.migrations + 1;
  thread.last_core <- core;
  let cpu = Monitor.cpu t.mon in
  if Hw.Cpu.core_id cpu <> core then Hw.Cpu.set_core cpu core;
  let b = Monitor.bus t.mon in
  if b.Telemetry.Bus.tracing then
    Telemetry.Bus.emit b (Telemetry.Event.Sched_switch { tid = thread.tid; cid = thread.cid });
  Monitor.run_as t.mon thread.cid (fun () ->
      match runnable with
      | Fresh th ->
          Effect.Deep.match_with th.body ()
            {
              retc = (fun () -> ());
              exnc = raise;
              effc =
                (fun (type a) (eff : a Effect.t) ->
                  match eff with
                  | Yield ->
                      Some
                        (fun (k : (a, unit) Effect.Deep.continuation) ->
                          Queue.push (Resumed (th, k))
                            t.queues.(Hw.Cpu.core_id (Monitor.cpu t.mon)))
                  | _ -> None);
            }
      | Resumed (_, k) -> Effect.Deep.continue k ())

let alive t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

(* Pick the next runnable for [core]: its own queue first, else steal
   the oldest thread from the most loaded other queue. *)
let next_runnable t core =
  let q = t.queues.(core) in
  if not (Queue.is_empty q) then Some (Queue.pop q)
  else begin
    let victim = ref (-1) in
    for c = 0 to ncores t - 1 do
      if
        c <> core
        && Queue.length t.queues.(c) > (if !victim < 0 then 0 else Queue.length t.queues.(!victim))
      then victim := c
    done;
    if !victim < 0 then None
    else begin
      t.steals <- t.steals + 1;
      Some (Queue.pop t.queues.(!victim))
    end
  end

let run t =
  if t.running then invalid_arg "Sched.run: scheduler is already running";
  t.running <- true;
  let saved = !current_scheduler in
  let cpu = Monitor.cpu t.mon in
  let entry_core = Hw.Cpu.core_id cpu in
  current_scheduler := Some t;
  Fun.protect
    ~finally:(fun () ->
      current_scheduler := saved;
      t.running <- false;
      if Hw.Cpu.core_id cpu <> entry_core then Hw.Cpu.set_core cpu entry_core)
    (fun () ->
      (* The cores take turns: one slice per core per round. Work
         stealing keeps an idle core busy the moment any queue has a
         backlog, which is what flattens the makespan (max per-core
         cycles) and yields the scaling curve. *)
      while alive t > 0 do
        for core = 0 to ncores t - 1 do
          match next_runnable t core with
          | Some r -> slice t core r
          | None -> ()
        done
      done)

let context_switches t = t.switches
let migrations t = t.migrations
let steals t = t.steals
