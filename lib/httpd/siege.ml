open Cubicle

type fetch_result = { status : int; body : string; cycles : int; latency_ms : float }

type t = {
  sys : Libos.Boot.system;
  server : Server.t;
  netdev : Libos.Netdev.state;
  mutable next_conn : int;
}

let make sys server =
  match sys.Libos.Boot.netdev with
  | None -> Types.error "siege: system has no network device"
  | Some netdev -> { sys; server; netdev; next_conn = 1 }

(* A response reader over one connection's in-order byte stream. The
   header block collects in [hdr] until its blank line and is parsed
   once; the body is then allocated at exactly its content-length and
   later bytes are blitted straight into it, so each body byte is
   copied once. Every completed response goes to [on_response] as
   (status, body); with [head_only] a response ends at its header
   block, which is passed on in place of the body. Bytes after a
   response start the next one (pipelining). *)
type reader = {
  head_only : bool;
  on_response : int -> string -> unit;
  hdr : Buffer.t;
  mutable status : int;
  mutable body : Bytes.t;  (* of the response being read; [in_body] *)
  mutable filled : int;
  mutable in_body : bool;
  mutable received : int;  (* stream bytes fed so far *)
}

let reader ?(head_only = false) on_response =
  {
    head_only;
    on_response;
    hdr = Buffer.create 256;
    status = 0;
    body = Bytes.empty;
    filled = 0;
    in_body = false;
    received = 0;
  }

let status_of block =
  if String.length block < 12 then Types.error "siege: bad status line %S" block;
  try int_of_string (String.sub block 9 3)
  with _ -> Types.error "siege: bad status line %S" (String.sub block 0 12)

let finish_body r =
  let body = r.body in
  r.body <- Bytes.empty;
  r.in_body <- false;
  (* [body] is never written again: it was the reader's only reference *)
  r.on_response r.status (Bytes.unsafe_to_string body)

let end_header r =
  let block = Buffer.contents r.hdr in
  Buffer.clear r.hdr;
  let status = status_of block in
  if r.head_only then r.on_response status block
  else begin
    let len =
      match Http.find_header block "content-length" with
      | Some v -> int_of_string v
      | None -> Types.error "siege: no content-length header"
    in
    r.status <- status;
    r.body <- Bytes.create len;
    r.filled <- 0;
    r.in_body <- true;
    if len = 0 then finish_body r
  end

(* The header block so far ends in "\r\n\r\n" (its last byte, '\n',
   already checked). *)
let header_done hdr =
  let l = Buffer.length hdr in
  l >= 4 && Buffer.nth hdr (l - 2) = '\r' && Buffer.nth hdr (l - 3) = '\n'
  && Buffer.nth hdr (l - 4) = '\r'

(* Feed the stream bytes [b.[off, off + len)] to [r]. *)
let feed r b off len =
  r.received <- r.received + len;
  let stop = off + len in
  let rec go i =
    if i < stop then
      if r.in_body then begin
        let k = Int.min (stop - i) (Bytes.length r.body - r.filled) in
        Bytes.blit b i r.body r.filled k;
        r.filled <- r.filled + k;
        if r.filled = Bytes.length r.body then finish_body r;
        go (i + k)
      end
      else begin
        let c = Bytes.unsafe_get b i in
        Buffer.add_char r.hdr c;
        if c = '\n' && header_done r.hdr then end_header r;
        go (i + 1)
      end
  in
  go off

(* Poll the server, feeding connection [conn]'s data to [r] in sequence
   order, until [is_done ()]; [stalled ()] raises once several polls in
   a row have served no request and drained no frame. Frames are parsed
   where NETDEV left them on the wire, so each body byte is copied once,
   from the wire into the body. The wire is drained only after
   [Server.poll] returns: the client's work is never billed to a
   cubicle's crossing. *)
let drive t ~conn r ~is_done ~stalled =
  let reasm = Libos.Lwip.Reassembly.create () in
  let deliver = feed r in
  let frames = ref 0 in
  let on_frame b off len =
    incr frames;
    let c, kind, seq = Libos.Lwip.Frame.decode_slice b ~off ~len in
    if c = conn && kind = Libos.Lwip.Frame.Data then
      Libos.Lwip.Reassembly.push_with reasm ~seq ~deliver b
        ~off:(off + Libos.Sysdefs.frame_header)
        ~len:(len - Libos.Sysdefs.frame_header)
  in
  let idle = ref 0 in
  while not (is_done ()) do
    let served = Server.poll t.server in
    frames := 0;
    Libos.Netdev.host_drain t.netdev on_frame;
    if served = 0 && !frames = 0 && not (is_done ()) then begin
      incr idle;
      if !idle > 3 then stalled ()
    end
    else idle := 0
  done

let open_conn t =
  let conn = t.next_conn in
  t.next_conn <- conn + 1;
  Libos.Netdev.host_inject t.netdev (Libos.Lwip.Frame.encode ~conn ~kind:Syn ~payload:"" ());
  conn

let request t ~conn ?(seq = 0) payload =
  Libos.Netdev.host_inject t.netdev (Libos.Lwip.Frame.encode ~seq ~conn ~kind:Data ~payload ())

let fetch t path =
  let cost = Monitor.cost t.sys.Libos.Boot.mon in
  let c0 = Hw.Cost.cycles cost in
  let conn = open_conn t in
  request t ~conn (Printf.sprintf "GET %s HTTP/1.0\r\nHost: sim\r\n\r\n" path);
  let finished = ref None in
  let r = reader (fun status body -> if !finished = None then finished := Some (status, body)) in
  drive t ~conn r
    ~is_done:(fun () -> !finished <> None)
    ~stalled:(fun () ->
      Types.error "siege: server stalled fetching %s (%d bytes so far)" path r.received);
  let status, body = Option.get !finished in
  let cycles = Hw.Cost.cycles cost - c0 in
  {
    status;
    body;
    cycles;
    latency_ms = Hw.Cost.to_ms (cycles + Libos.Sysdefs.request_overhead_cycles);
  }

(* Send several requests over one keep-alive connection and collect the
   responses in order. *)
let fetch_pipelined t paths =
  let conn = open_conn t in
  let last = List.length paths - 1 in
  List.iteri
    (fun i path ->
      let connection = if i = last then "close" else "keep-alive" in
      request t ~conn ~seq:i
        (Printf.sprintf "GET %s HTTP/1.0\r\nHost: sim\r\nConnection: %s\r\n\r\n" path
           connection))
    paths;
  let results = ref [] in
  let pending = ref (List.length paths) in
  let r =
    reader (fun status body ->
        if !pending > 0 then begin
          results := (status, body) :: !results;
          decr pending
        end)
  in
  drive t ~conn r
    ~is_done:(fun () -> !pending = 0)
    ~stalled:(fun () -> Types.error "siege: pipelined fetch stalled (%d pending)" !pending);
  List.rev !results

let fetch_head t path =
  let conn = open_conn t in
  request t ~conn (Printf.sprintf "HEAD %s HTTP/1.0\r\nHost: sim\r\n\r\n" path);
  let finished = ref None in
  let r =
    reader ~head_only:true (fun _ block -> if !finished = None then finished := Some block)
  in
  drive t ~conn r
    ~is_done:(fun () -> !finished <> None)
    ~stalled:(fun () -> Types.error "siege: HEAD stalled");
  Option.get !finished

let latency_for_sizes t ~sizes ?(repeats = 3) ~populate () =
  List.map
    (fun size ->
      let path = populate size in
      let samples = List.init repeats (fun _ -> (fetch t path).latency_ms) in
      let sorted = List.sort compare samples in
      let median = List.nth sorted (repeats / 2) in
      let mean = List.fold_left ( +. ) 0. samples /. float_of_int repeats in
      (size, median, mean))
    sizes
