(* The traced run's telemetry bus sink.

   Every [Call]/[Return] pair is stamped with the host monotonic clock
   and folded into a span per (caller, callee) edge; a cubicle's self
   time is its spans minus the spans of the calls it made. Tenant
   cubicles (TFS<i>, TWEB<i>) are summed per family. Host time inside a
   benchmark operation (or its upkeep) but outside every span belongs
   to whoever ran it: APP, NGINX or GW, or "builder" for tenant churn.
   The benchmark reports those intervals through [op_done]. NGINX's
   share includes Siege's host-side client, which drives Server.poll
   with no bus event between the two. The sink also counts [Pager],
   [Key_fault_in] and [Key_evict] events. Everything stays in memory
   until [to_json]. *)

open Cubicle

type edge = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

type t = {
  mon : Monitor.t;
  mutable fam_of_cid : int array;  (* -1: not resolved since the last [forget_cids] *)
  fam_index : (string, int) Hashtbl.t;
  mutable fam_names : string array;
  mutable self_ns : int array;  (* by family *)
  edges : (int * int, edge) Hashtbl.t;
  (* open spans, innermost last *)
  mutable depth : int;
  mutable st_caller : int array;
  mutable st_callee : int array;
  mutable st_start : int array;
  mutable st_child : int array;
  mutable top_ns : int;  (* outermost span time since the last [op_done] *)
  mutable unmatched : int;
  mutable events : int;
  pager : int array;
  mutable key_fault_ins : int;
  mutable key_evicts : int;
}

let pager_ops =
  Telemetry.Event.
    [ Cache_hit; Cache_miss; Evict; Page_read; Page_write; Commit; Rollback; Wal_append; Checkpoint ]

let pager_index (op : Telemetry.Event.pager_op) =
  match op with
  | Cache_hit -> 0
  | Cache_miss -> 1
  | Evict -> 2
  | Page_read -> 3
  | Page_write -> 4
  | Commit -> 5
  | Rollback -> 6
  | Wal_append -> 7
  | Checkpoint -> 8

let create mon =
  {
    mon;
    fam_of_cid = Array.make 64 (-1);
    fam_index = Hashtbl.create 16;
    fam_names = [||];
    self_ns = [||];
    edges = Hashtbl.create 64;
    depth = 0;
    st_caller = Array.make 64 0;
    st_callee = Array.make 64 0;
    st_start = Array.make 64 0;
    st_child = Array.make 64 0;
    top_ns = 0;
    unmatched = 0;
    events = 0;
    pager = Array.make (List.length pager_ops) 0;
    key_fault_ins = 0;
    key_evicts = 0;
  }

(* TFS12 -> TFS, TWEB3 -> TWEB; other names are their own family. *)
let family name =
  let i = ref (String.length name) in
  while !i > 0 && name.[!i - 1] >= '0' && name.[!i - 1] <= '9' do
    decr i
  done;
  if !i = 0 then name else String.sub name 0 !i

let fam_of_name t name =
  match Hashtbl.find_opt t.fam_index name with
  | Some i -> i
  | None ->
      let i = Array.length t.fam_names in
      Hashtbl.replace t.fam_index name i;
      t.fam_names <- Array.append t.fam_names [| name |];
      t.self_ns <- Array.append t.self_ns [| 0 |];
      i

let fam t cid =
  if cid < Array.length t.fam_of_cid && t.fam_of_cid.(cid) >= 0 then t.fam_of_cid.(cid)
  else begin
    let name = try family (Monitor.cubicle_name t.mon cid) with _ -> "?" in
    let f = fam_of_name t name in
    if cid >= Array.length t.fam_of_cid then begin
      let a = Array.make (2 * (cid + 1)) (-1) in
      Array.blit t.fam_of_cid 0 a 0 (Array.length t.fam_of_cid);
      t.fam_of_cid <- a
    end;
    t.fam_of_cid.(cid) <- f;
    f
  end

(* Cubicle ids are recycled by teardown: drop the cid -> family cache
   whenever the set of live cubicles changes. *)
let forget_cids t = Array.fill t.fam_of_cid 0 (Array.length t.fam_of_cid) (-1)

let grow a = Array.append a (Array.make (Array.length a) 0)

let push t ~caller ~callee =
  let d = t.depth in
  if d = Array.length t.st_start then begin
    t.st_caller <- grow t.st_caller;
    t.st_callee <- grow t.st_callee;
    t.st_start <- grow t.st_start;
    t.st_child <- grow t.st_child
  end;
  t.st_caller.(d) <- fam t caller;
  t.st_callee.(d) <- fam t callee;
  t.st_child.(d) <- 0;
  t.depth <- d + 1;
  t.st_start.(d) <- Clock.now_ns ()

let pop t =
  let now = Clock.now_ns () in
  if t.depth = 0 then t.unmatched <- t.unmatched + 1
  else begin
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = now - t.st_start.(d) in
    let self = dur - t.st_child.(d) in
    let callee = t.st_callee.(d) in
    t.self_ns.(callee) <- t.self_ns.(callee) + self;
    let key = (t.st_caller.(d), callee) in
    let e =
      match Hashtbl.find_opt t.edges key with
      | Some e -> e
      | None ->
          let e = { calls = 0; total_ns = 0; self_ns = 0 } in
          Hashtbl.replace t.edges key e;
          e
    in
    e.calls <- e.calls + 1;
    e.total_ns <- e.total_ns + dur;
    e.self_ns <- e.self_ns + self;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur else t.top_ns <- t.top_ns + dur
  end

let sink t (e : Telemetry.Bus.entry) =
  t.events <- t.events + 1;
  match e.ev with
  | Call { caller; callee; _ } -> push t ~caller ~callee
  | Return _ -> pop t
  | Pager op ->
      let i = pager_index op in
      t.pager.(i) <- t.pager.(i) + 1
  | Key_fault_in _ -> t.key_fault_ins <- t.key_fault_ins + 1
  | Key_evict _ -> t.key_evicts <- t.key_evicts + 1
  | _ -> ()

(* One benchmark operation of [wall_ns] ran as cubicle [driver]: the part
   no span covers is the driver's own time. *)
let op_done t ~driver ~wall_ns =
  let f = fam_of_name t driver in
  t.self_ns.(f) <- t.self_ns.(f) + (wall_ns - t.top_ns);
  t.top_ns <- 0

let self_ns t name =
  match Hashtbl.find_opt t.fam_index name with Some i -> t.self_ns.(i) | None -> 0

let pager_count t op = t.pager.(pager_index op)

let to_json t ~meta ~ops =
  let per_op ns = float_of_int ns /. 1000. /. float_of_int (max 1 ops) in
  let fams =
    List.sort compare (Array.to_list (Array.mapi (fun i n -> (n, t.self_ns.(i))) t.fam_names))
  in
  let edges =
    Hashtbl.fold
      (fun (c, d) e acc -> ((t.fam_names.(c), t.fam_names.(d)), e) :: acc)
      t.edges []
    |> List.sort compare
  in
  Json.obj
    (meta
    @ [
        ("ops", Json.num (float_of_int ops));
        ("events", Json.num (float_of_int t.events));
        ("unmatched_returns", Json.num (float_of_int t.unmatched));
        ( "counts",
          Json.obj
            (List.map
               (fun op ->
                 ( "pager." ^ Telemetry.Event.pager_op_name op,
                   Json.num (float_of_int (pager_count t op)) ))
               pager_ops
            @ [
                ("key_fault_in", Json.num (float_of_int t.key_fault_ins));
                ("key_evict", Json.num (float_of_int t.key_evicts));
              ]) );
        ( "self_us_per_op",
          Json.obj (List.map (fun (n, ns) -> (n, Json.num (per_op ns))) fams) );
        ( "edges",
          Json.arr
            (List.map
               (fun ((caller, callee), e) ->
                 Json.obj
                   [
                     ("caller", Json.str caller);
                     ("callee", Json.str callee);
                     ("calls", Json.num (float_of_int e.calls));
                     ("total_us", Json.num (float_of_int e.total_ns /. 1000.));
                     ("self_us", Json.num (float_of_int e.self_ns /. 1000.));
                   ])
               edges) );
      ])
