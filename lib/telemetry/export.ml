(* Exporters for the event ring: Chrome trace_event JSON (load in
   chrome://tracing or https://ui.perfetto.dev) and folded-stacks text
   (feed to flamegraph.pl / speedscope). The JSON exporter is built on
   {!Stream}, which formats one entry at a time through a
   caller-supplied writer — attach [Stream.entry] as a [Bus] sink to
   write the trace incrementally during the run (no ring-capacity
   ceiling), or feed it a captured entry list after the fact
   ({!trace_json} does exactly that, so the two paths are byte-identical
   on the same entries by construction). *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* One trace_event object. [ph] "B"/"E" nest duration slices; each
   simulated core is its own track ([tid] = core + 1), so slices nest
   per core and the trace viewer shows one lane per core. Everything
   else is an instant event on its core's lane. *)
let add_trace_obj b ~name ~cat ~ph ~ts ~tid ~args =
  Buffer.add_string b "{\"name\":";
  buf_add_json_string b name;
  Buffer.add_string b ",\"cat\":";
  buf_add_json_string b cat;
  Buffer.add_string b (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d" ph ts tid);
  (match ph with "i" -> Buffer.add_string b ",\"s\":\"t\"" | _ -> ());
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_add_json_string b k;
          Buffer.add_char b ':';
          v b)
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let jstr s b = buf_add_json_string b s
let jint (n : int) b = Buffer.add_string b (string_of_int n)

module Stream = struct
  type t = {
    write : string -> unit;
    names : int -> string;
    cycles_per_us : float;
    scratch : Buffer.t;  (* per-entry formatting buffer, reused *)
    stacks : (int, string list) Hashtbl.t;
        (* per-core open "B" slices, innermost first: slices nest per
           track, so each core keeps its own stack *)
    mutable last_ts : float;
    mutable finished : bool;
  }

  let create ~names ~cycles_per_us ~write () =
    let b = Buffer.create 256 in
    Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    Buffer.add_string b "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":";
    buf_add_json_string b "cubicleos-sim";
    Buffer.add_string b "}}";
    write (Buffer.contents b);
    {
      write;
      names;
      cycles_per_us;
      scratch = Buffer.create 512;
      stacks = Hashtbl.create 4;
      last_ts = 0.;
      finished = false;
    }

  let flush t =
    t.write (Buffer.contents t.scratch);
    Buffer.clear t.scratch

  let stack t core = Option.value ~default:[] (Hashtbl.find_opt t.stacks core)

  let entry t { Bus.at; core; ev; _ } =
    if t.finished then invalid_arg "Export.Stream.entry: stream already finished";
    let b = t.scratch in
    let names = t.names in
    let ts = float_of_int at /. t.cycles_per_us in
    t.last_ts <- ts;
    let tid = core + 1 in
    let obj ~name ~cat ~ph ~args =
      Buffer.add_string b ",\n";
      add_trace_obj b ~name ~cat ~ph ~ts ~tid ~args
    in
    let instant ?(cat = "event") name args = obj ~name ~cat ~ph:"i" ~args in
    (match ev with
    | Event.Call { caller; callee; sym } ->
        Hashtbl.replace t.stacks core (sym :: stack t core);
        obj ~name:sym ~cat:"call" ~ph:"B"
          ~args:[ ("caller", jstr (names caller)); ("callee", jstr (names callee)) ]
    | Event.Return { sym; _ } -> (
        (* An "E" whose "B" predates the trace (ring wrapped, trace
           started mid-call, or the "B" was sampled out) would corrupt
           slice nesting in Perfetto: only emit it while a slice is
           open on this core's track. *)
        match stack t core with
        | [] -> ()
        | _ :: rest ->
            Hashtbl.replace t.stacks core rest;
            obj ~name:sym ~cat:"call" ~ph:"E" ~args:[])
    | Event.Shared_call { caller; sym } ->
        instant ~cat:"call" ("shared:" ^ sym) [ ("caller", jstr (names caller)) ]
    | Event.Guard_fetch { cid; sym } ->
        instant ~cat:"call" ("guard:" ^ sym) [ ("cubicle", jstr (names cid)) ]
    | Event.Fault { addr; access; key; reason; resolved } ->
        instant ~cat:"fault" "fault"
          [
            ("addr", jint addr);
            ("access", jstr (Event.access_name access));
            ("key", jint key);
            ("reason", jstr (Event.reason_name reason));
            ("resolved", fun b -> Buffer.add_string b (string_of_bool resolved));
          ]
    | Event.Retag { page; to_key } ->
        instant ~cat:"fault" "retag" [ ("page", jint page); ("to_key", jint to_key) ]
    | Event.Key_fault_in { cid; vkey; phys } ->
        instant ~cat:"mpk" "key_fault_in"
          [ ("cubicle", jstr (names cid)); ("vkey", jint vkey); ("phys", jint phys) ]
    | Event.Key_evict { cid; vkey; phys; pages } ->
        instant ~cat:"mpk" "key_evict"
          [
            ("cubicle", jstr (names cid));
            ("vkey", jint vkey);
            ("phys", jint phys);
            ("pages", jint pages);
          ]
    | Event.Pkru_write { value } -> instant ~cat:"mpk" "wrpkru" [ ("pkru", jint value) ]
    | Event.Rejected { cid } -> instant ~cat:"fault" "rejected" [ ("cubicle", jstr (names cid)) ]
    | Event.Window { cid; op; wid; peer; ptr; size; rw } ->
        instant ~cat:"window"
          ("window:" ^ Event.window_op_name op)
          ([ ("cubicle", jstr (names cid)); ("wid", jint wid) ]
          @ (if peer >= 0 then [ ("peer", jstr (names peer)) ] else [])
          @ (if size > 0 then [ ("ptr", jint ptr); ("size", jint size) ] else [])
          @ if rw then [] else [ ("perm", jstr "r") ])
    | Event.Window_access { cid; owner; page; access } ->
        instant ~cat:"window"
          ("window_access:" ^ Event.access_name access)
          [ ("cubicle", jstr (names cid)); ("owner", jstr (names owner)); ("page", jint page) ]
    | Event.Tlb op -> instant ~cat:"tlb" ("tlb:" ^ Event.tlb_op_name op) []
    | Event.Sched_switch { tid; cid } ->
        instant ~cat:"sched" "sched_switch"
          [ ("tid", jint tid); ("cubicle", jstr (names cid)) ]
    | Event.Pager op -> instant ~cat:"pager" ("pager:" ^ Event.pager_op_name op) []
    | Event.Mark s -> instant ~cat:"mark" ("mark:" ^ s) []);
    flush t

  let open_slices t = Hashtbl.fold (fun _ syms acc -> acc + List.length syms) t.stacks 0

  let finish t =
    if not t.finished then begin
      t.finished <- true;
      let b = t.scratch in
      (* Close slices still open at capture (call in flight, or its "E"
         was sampled out) at the last seen timestamp, innermost first
         per core track, so the emitted "B"s all nest. *)
      let cores = Hashtbl.fold (fun core _ acc -> core :: acc) t.stacks [] in
      List.iter
        (fun core ->
          List.iter
            (fun sym ->
              Buffer.add_string b ",\n";
              add_trace_obj b ~name:sym ~cat:"call" ~ph:"E" ~ts:t.last_ts ~tid:(core + 1)
                ~args:[])
            (stack t core))
        (List.sort compare cores);
      Hashtbl.reset t.stacks;
      Buffer.add_string b "]}\n";
      flush t
    end
end

let trace_json ~names ~cycles_per_us entries =
  let b = Buffer.create 65536 in
  let st = Stream.create ~names ~cycles_per_us ~write:(Buffer.add_string b) () in
  List.iter (Stream.entry st) entries;
  Stream.finish st;
  Buffer.contents b

(* HdrHistogram percentile-distribution text (the format written by
   HistogramLogProcessor / expected by hdr-plot and
   hdrhistogram.github.io/HdrHistogram/plotFiles.html): one cumulative
   row per non-empty bucket, then the summary footer. StdDeviation is
   computed over bucket lower bounds — the same ~6% quantisation the
   histogram itself has. *)
let hdr h =
  let b = Buffer.create 1024 in
  Buffer.add_string b "       Value     Percentile TotalCount 1/(1-Percentile)\n\n";
  let total = Hist.count h in
  if total > 0 then begin
    let ftotal = float_of_int total in
    let seen = ref 0 in
    Hist.iter_buckets
      (fun ~low ~count ->
        seen := !seen + count;
        let q = float_of_int !seen /. ftotal in
        (* the last row reports the exact tracked maximum and omits
           1/(1-q), exactly as HdrHistogram prints its final line *)
        if !seen = total then
          Buffer.add_string b
            (Printf.sprintf "%12.3f %14.12f %10d\n"
               (float_of_int (Hist.max_value h))
               1.0 !seen)
        else
          Buffer.add_string b
            (Printf.sprintf "%12.3f %14.12f %10d %14.2f\n" (float_of_int low) q !seen
               (1. /. (1. -. q))))
      h;
    let mean = Hist.mean h in
    let var = ref 0. in
    Hist.iter_buckets
      (fun ~low ~count ->
        let d = float_of_int low -. mean in
        var := !var +. (float_of_int count *. d *. d))
      h;
    let nbuckets = ref 0 in
    Hist.iter_buckets (fun ~low:_ ~count:_ -> incr nbuckets) h;
    Buffer.add_string b
      (Printf.sprintf "#[Mean    = %12.3f, StdDeviation   = %12.3f]\n" mean
         (sqrt (!var /. ftotal)));
    Buffer.add_string b
      (Printf.sprintf "#[Max     = %12.3f, Total count    = %10d]\n"
         (float_of_int (Hist.max_value h))
         total);
    Buffer.add_string b (Printf.sprintf "#[Buckets = %12d, SubBuckets     = %10d]\n" !nbuckets 16)
  end;
  Buffer.contents b

(* Folded stacks: attribute the simulated cycles elapsed between
   consecutive events to the call stack in effect before each event.
   Frames are "CUBICLE:sym"; the root frame collects time outside any
   traced cross-cubicle call. Each core keeps its own stack (its root
   frame is "<root>@coreN" for cores past 0, so a single-core trace is
   unchanged); the cycles between two merged events go to the core that
   was executing — the one emitting the later event. *)
let folded_stacks ?(root = "main") ?until ~names entries =
  let tbl = Hashtbl.create 64 in
  let bump key dt =
    if dt > 0 then
      Hashtbl.replace tbl key (dt + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let stacks = Hashtbl.create 4 (* core -> stack, top first *) in
  let stack_of core =
    match Hashtbl.find_opt stacks core with
    | Some st -> st
    | None -> [ (if core = 0 then root else Printf.sprintf "%s@core%d" root core) ]
  in
  let key_of st = String.concat ";" (List.rev st) in
  let last = ref (match entries with { Bus.at; _ } :: _ -> at | [] -> 0) in
  let last_core = ref 0 in
  List.iter
    (fun { Bus.at; core; ev; _ } ->
      bump (key_of (stack_of core)) (at - !last);
      last := at;
      last_core := core;
      match ev with
      | Event.Call { callee; sym; _ } ->
          Hashtbl.replace stacks core
            (Printf.sprintf "%s:%s" (names callee) sym :: stack_of core)
      | Event.Return _ -> (
          match stack_of core with
          | _ :: (_ :: _ as rest) -> Hashtbl.replace stacks core rest
          | _ -> () (* unbalanced return (trace started mid-call): keep root *))
      | _ -> ())
    entries;
  (* The tail: cycles between the last event and capture belong to the
     stack in effect there — without this the end of every run vanished
     from flamegraphs. *)
  (match until with Some u -> bump (key_of (stack_of !last_core)) (u - !last) | None -> ());
  let lines =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %d" k v :: acc) tbl []
    |> List.sort compare
  in
  String.concat "\n" lines ^ if lines = [] then "" else "\n"
