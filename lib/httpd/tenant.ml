open Cubicle

(* Multi-tenant serving sets for the key-pressure bench: each tenant is
   a private FS<i>+WEB<i> cubicle pair behind one shared gateway, so N
   tenants put 2N+1 isolated cubicles on the machine — far past the 14
   physical MPK tags once N grows, which is exactly the pressure the
   key multiplexer exists to absorb.

   The request path exercises every isolation mechanism per request:
   the gateway opens a per-request window over its request page for
   WEB<i> and calls [t<i>_get]; WEB<i> reads the request through that
   window, calls [t<i>_read] so FS<i> fills WEB's chunk buffer through
   a standing RW window, assembles an HTTP response in its response
   page, and the gateway reads it back through a standing R window.
   Every cross-cubicle entry resolves the callee's virtual key, so
   round-robin traffic over enough tenants faults keys in and out on
   nearly every call.

   Guard entries follow declared calls: WEB<i> declares its call to
   [t<i>_read], and the gateway declares its call to [t<i>_get] when
   tenant id i is first spawned ({!Builder.declare}). The declaration
   outlives a teardown, so a respawn declares nothing and finds the
   gateway's entry still in place. *)

let page = Hw.Addr.page_size

let fs_name i = Printf.sprintf "TFS%d" i
let web_name i = Printf.sprintf "TWEB%d" i
let read_sym i = Printf.sprintf "t%d_read" i
let get_sym i = Printf.sprintf "t%d_get" i
let gw_name = "GW"

(* Deterministic per-tenant file bytes, printable so responses diff
   readably: the bench recomputes them host-side for the byte-identity
   check. *)
let content_byte ~tenant off = 32 + (((tenant * 37) + (off * 11)) mod 95)

let header_for len = Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" len

let expected ~tenant ~off ~len =
  header_for len ^ String.init len (fun j -> Char.chr (content_byte ~tenant (off + j)))

(* Every file is one 95-periodic byte sequence: the residue of byte
   [off + j] is the residue [r] of byte [off] plus [11 * j], mod 95. As
   11 is coprime to 95, that is byte [start.(r) + j] of [cycle], whose
   byte [k] has residue [11 * k mod 95]; 26 is the inverse of 11 mod
   95. So any response of at most a page is one window of [cycle]. *)
let cycle = Bytes.init (94 + page) (fun k -> Char.chr (32 + (k * 11 mod 95)))
let start = Array.init 95 (fun r -> r * 26 mod 95)

(* FS<i>: the tenant's file store. [t<i>_read dst off len] writes the
   file bytes into the caller's buffer — WEB's chunk page, reached
   through WEB's standing RW window — one byte store at a time, as one
   store run from their window of [cycle]. *)
let fs_component ~name ~read tenant =
  let fn ctx (args : int array) =
    let dst = args.(0) and off = args.(1) and len = args.(2) in
    Api.store_run ctx dst cycle ~pos:start.(content_byte ~tenant off - 32) ~len;
    len
  in
  Builder.component ~heap_pages:2 ~stack_pages:1
    ~exports:[ Builder.export ~derefs:[ 0 ] ~writes:[ 0 ] read fn [] ]
    name

(* WEB<i>: the tenant's server. Owns a chunk page (standing RW window
   for FS<i>) and a response page (standing R window for the gateway).
   [t<i>_get req] reads (off, len) from the gateway's request page,
   pulls the bytes from FS<i>, and leaves [u32 total][response bytes]
   in the response page, returning its address. *)
let web_component ~name ~fs ~read ~get =
  let read_fs = Api.import read in
  let chunk = ref 0 in
  let resp = ref 0 in
  let init ctx =
    chunk := Api.malloc_page_aligned ctx page;
    resp := Api.malloc_page_aligned ctx page;
    let wc = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx wc ~ptr:!chunk ~size:page;
    Api.window_open ctx wc (Api.cid_of ctx fs);
    let wr = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx ~perm:Window.R wr ~ptr:!resp ~size:page;
    Api.window_open ctx wr (Api.cid_of ctx gw_name)
  in
  let fn ctx (args : int array) =
    let req = args.(0) in
    let off = Api.read_u32 ctx req in
    let len = Api.read_u32 ctx (req + 4) in
    ignore (Api.call ctx read_fs [| !chunk; off; len |]);
    let header = header_for len in
    let hlen = String.length header in
    Api.write_u32 ctx !resp (hlen + len);
    Api.write_string ctx (!resp + 4) header;
    Api.memcpy ctx ~dst:(!resp + 4 + hlen) ~src:!chunk ~len;
    !resp
  in
  Builder.component ~heap_pages:4 ~stack_pages:2 ~init
    ~exports:
      [ Builder.export ~derefs:[ 0 ] get fn [ Iface.Call { sym = read; ptr_args = [] } ] ]
    name

(* A tenant id's components and names, built at its first spawn and
   reused by every respawn: the closures, summaries and code images
   are the same each time. *)
type parts = {
  fs_cubicle : string;
  web_cubicle : string;
  entry : Api.import;
  comps : (Builder.component * Types.kind) list;
}

let parts_for i =
  let fs = fs_name i and web = web_name i and read = read_sym i and get = get_sym i in
  {
    fs_cubicle = fs;
    web_cubicle = web;
    entry = Api.import get;
    comps =
      [
        (fs_component ~name:fs ~read i, Types.Isolated);
        (web_component ~name:web ~fs ~read ~get, Types.Isolated);
      ];
  }

(* A live tenant's cubicles and entry point, found once at spawn so
   neither a request nor a teardown builds a string or looks a name up.
   [get] is the tenant id's one handle: after a respawn its first call
   resolves it again. *)
type entry = { web : Types.cid; fs : Types.cid; get : Api.import }

type t = {
  mon : Monitor.t;
  built : Builder.built;
  gw : Types.cid;
  gw_req : int;
  gw_wid : Types.wid;
  mutable live : entry option array;  (* by tenant id; grown on spawn *)
  mutable parts : parts option array;  (* by tenant id; grown on spawn *)
}

let boot ?(protection = Types.Full) ?virtualise ?(mem_bytes = 512 * 1024 * 1024) () =
  let mon = Monitor.create ~mem_bytes ?virtualise ~protection () in
  let built =
    Builder.build mon
      [ (Builder.component ~heap_pages:4 ~stack_pages:2 gw_name, Types.Isolated) ]
  in
  let gw = Builder.cid built gw_name in
  let ctx = Monitor.ctx_for mon gw in
  let gw_req, gw_wid =
    Monitor.run_as mon gw (fun () ->
        (Api.malloc_page_aligned ctx page, Api.window_init ctx ~klass:Mm.Page_meta.Heap))
  in
  { mon; built; gw; gw_req; gw_wid; live = [||]; parts = [||] }

let mon t = t.mon
let built t = t.built

let find t i = if i >= 0 && i < Array.length t.live then t.live.(i) else None

let live t =
  List.filter
    (fun i -> Option.is_some (find t i))
    (List.init (Array.length t.live) Fun.id)

(* [a] grown to hold index [i]. *)
let grown a i =
  if i < Array.length a then a
  else begin
    let g = Array.make (max (i + 1) (2 * Array.length a)) None in
    Array.blit a 0 g 0 (Array.length a);
    g
  end

let spawn t i =
  if i < 0 then Types.error "tenant id %d is negative" i;
  if Option.is_some (find t i) then Types.error "tenant %d is already live" i;
  t.parts <- grown t.parts i;
  let p, fresh =
    match t.parts.(i) with
    | Some p -> (p, Builder.spawn t.built p.comps)
    | None ->
        let p = parts_for i in
        let fresh = Builder.spawn t.built p.comps in
        Builder.declare t.built t.gw
          [ Iface.fundecl "__main" [ Iface.Call { sym = get_sym i; ptr_args = [] } ] ];
        t.parts.(i) <- Some p;
        (p, fresh)
  in
  t.live <- grown t.live i;
  t.live.(i) <-
    Some
      {
        web = List.assoc p.web_cubicle fresh;
        fs = List.assoc p.fs_cubicle fresh;
        get = p.entry;
      }

let components t i =
  if i >= 0 && i < Array.length t.parts then
    match t.parts.(i) with Some p -> List.map fst p.comps | None -> []
  else []

(* WEB first, then FS: the freed cids are recycled in that order. *)
let teardown t i =
  match find t i with
  | None -> Types.error "tenant %d is not live" i
  | Some { web; fs; _ } ->
      Monitor.destroy_cubicle t.mon web;
      Monitor.destroy_cubicle t.mon fs;
      t.live.(i) <- None

let request t ~tenant ~off ~len =
  let { web; get; _ } =
    match find t tenant with
    | Some e -> e
    | None -> Types.error "tenant %d is not live" tenant
  in
  if len > page - 64 then Types.error "tenant request: %d bytes exceeds a response page" len;
  if off < 0 || len < 0 then Types.error "tenant request: negative offset %d or length %d" off len;
  let ctx = Monitor.ctx_for t.mon t.gw in
  Monitor.run_as t.mon t.gw (fun () ->
      Api.write_u32 ctx t.gw_req off;
      Api.write_u32 ctx (t.gw_req + 4) len;
      Api.window_add ctx t.gw_wid ~ptr:t.gw_req ~size:page;
      Api.window_open ctx t.gw_wid web;
      let resp = Api.call ctx get [| t.gw_req |] in
      let total = Api.read_u32 ctx resp in
      let body = Api.read_string ctx (resp + 4) total in
      Api.window_close ctx t.gw_wid web;
      Api.window_remove ctx t.gw_wid ~ptr:t.gw_req;
      body)
