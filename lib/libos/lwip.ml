open Cubicle

(* Handles on the symbols this component calls, made once. *)
module Import = struct
  let netdev_rx = Api.import "netdev_rx"
  let uk_palloc = Api.import "uk_palloc"
  let memcpy = Api.import "memcpy"
  let uk_pfree = Api.import "uk_pfree"
  let netdev_tx = Api.import "netdev_tx"
  let netdev_tx_gather = Api.import "netdev_tx_gather"
end

module Int_tbl = Mm.Int_tbl

module Frame = struct
  type kind = Syn | Data | Fin

  let kind_to_int = function Syn -> 0 | Data -> 1 | Fin -> 2
  let kind_of_int = function
    | 0 -> Syn
    | 1 -> Data
    | 2 -> Fin
    | n -> invalid_arg (Printf.sprintf "Lwip.Frame: bad kind %d" n)

  let encode ?(seq = 0) ~conn ~kind ~payload () =
    let n = String.length payload in
    if n > Sysdefs.mss then invalid_arg "Lwip.Frame.encode: payload exceeds MSS";
    let b = Bytes.create (Sysdefs.frame_header + n) in
    Bytes.set_int32_le b 0 (Int32.of_int conn);
    Bytes.set_uint8 b 4 (kind_to_int kind);
    Bytes.set_int32_le b 5 (Int32.of_int seq);
    Bytes.set_uint16_le b 9 n;
    Bytes.blit_string payload 0 b Sysdefs.frame_header n;
    b

  (* The header of the frame in [b] at [off, off + len), checked as
     the stack would: a short frame, an unknown kind or a length field
     that disagrees with [len] is malformed. The payload is the slice
     after the header. *)
  let decode_slice b ~off ~len =
    if len < Sysdefs.frame_header then invalid_arg "Lwip.Frame: short frame";
    let conn = Int32.to_int (Bytes.get_int32_le b off) in
    let kind = kind_of_int (Bytes.get_uint8 b (off + 4)) in
    let seq = Int32.to_int (Bytes.get_int32_le b (off + 5)) in
    if len <> Sysdefs.frame_header + Bytes.get_uint16_le b (off + 9) then
      invalid_arg "Lwip.Frame: length mismatch";
    (conn, kind, seq)

  let decode b =
    let len = Bytes.length b in
    let conn, kind, seq = decode_slice b ~off:0 ~len in
    (conn, kind, seq, Bytes.sub_string b Sysdefs.frame_header (len - Sysdefs.frame_header))
end

(* Host-side in-order reassembly of sequenced data frames. Only an
   early payload is copied, to wait in [parked] for its gap. *)
module Reassembly = struct
  type t = { parked : string Int_tbl.t; mutable next_seq : int; ready : Buffer.t }

  let create () = { parked = Int_tbl.create 8; next_seq = 0; ready = Buffer.create 256 }

  let rec deliver_parked t deliver =
    match Int_tbl.find_opt t.parked t.next_seq with
    | Some p ->
        Int_tbl.remove t.parked t.next_seq;
        t.next_seq <- t.next_seq + 1;
        deliver (Bytes.unsafe_of_string p) 0 (String.length p);
        deliver_parked t deliver
    | None -> ()

  let push_with t ~seq ~deliver b ~off ~len =
    if seq = t.next_seq then begin
      t.next_seq <- seq + 1;
      deliver b off len;
      if Int_tbl.length t.parked > 0 then deliver_parked t deliver
    end
    else if seq > t.next_seq then Int_tbl.replace t.parked seq (Bytes.sub_string b off len)

  let push t ~seq payload =
    push_with t ~seq ~deliver:(Buffer.add_subbytes t.ready) (Bytes.unsafe_of_string payload)
      ~off:0 ~len:(String.length payload)

  let pop_ready t =
    let s = Buffer.contents t.ready in
    Buffer.clear t.ready;
    s

  let pending t = Int_tbl.length t.parked
end

(* A received segment held in an LWIP-owned pbuf page. *)
type segment = { pbuf : int; mutable off : int; mutable len : int }

type conn = {
  id : int;
  mutable rx : segment Queue.t;
  parked : segment Int_tbl.t;  (* out-of-order segments by seq *)
  mutable next_rx_seq : int;
  mutable next_tx_seq : int;
  mutable fin_seen : bool;
  mutable closed : bool;
  mutable unacked : int;  (* bytes sent since the last modelled ack *)
}

(* The stack can run [nshards] independent accept shards (SO_REUSEPORT
   style): each shard drives its own NETDEV ring through its own
   staging page and keeps its own accept backlog, so N httpd workers
   can pump frames concurrently without sharing any LWIP buffer. A
   connection's shard is [conn_id mod nshards] — the host bridge
   steers frames accordingly (RSS by connection id). *)
type state = {
  nshards : int;
  mutable listening : bool;
  conns : conn Int_tbl.t;
  pending_accept : int Queue.t array;  (* one backlog per shard *)
  mutable netdev_cid : Types.cid;
  rx_staging : int array;  (* per-shard page for incoming frames, windowed to NETDEV *)
  staging_wids : Types.wid array;
  (* (owner, wid) pairs already forwarded to NETDEV on the zero-copy
     send path, by [forward_key]; wids are never reused, so one forward
     per grant window is enough for the lifetime of the stack *)
  forwarded : unit Int_tbl.t;
}

let forward_key ~owner wid = (wid * Monitor.max_cubicles) + owner
let shard_of_conn state conn_id = conn_id mod state.nshards

(* Pull every pending frame out of one NETDEV ring into per-connection
   segment queues. Runs inside accept/recv/send, like lwIP's input
   pump. *)
let pump state ctx shard =
  let staging = state.rx_staging.(shard) in
  let rec loop () =
    let n = Api.call ctx Import.netdev_rx [| staging; Sysdefs.mtu; shard |] in
    if n > 0 then begin
      let conn_id = Api.read_u32 ctx staging in
      let kind = Api.read_u8 ctx (staging + 4) in
      let seq = Api.read_u32 ctx (staging + 5) in
      let len = Api.read_u16 ctx (staging + 9) in
      (match kind with
      | 0 (* syn *) ->
          if state.listening && not (Int_tbl.mem state.conns conn_id) then begin
            Int_tbl.replace state.conns conn_id
              {
                id = conn_id;
                rx = Queue.create ();
                parked = Int_tbl.create 8;
                next_rx_seq = 0;
                next_tx_seq = 0;
                fin_seen = false;
                closed = false;
                unacked = 0;
              };
            Queue.push conn_id state.pending_accept.(shard)
          end
      | 1 (* data *) -> (
          match Int_tbl.find_opt state.conns conn_id with
          | None -> ()
          | Some c ->
              (* copy payload into a fresh pbuf from ALLOC; deliver
                 segments to the stream strictly in sequence order,
                 parking anything that arrived early *)
              if seq >= c.next_rx_seq && not (Int_tbl.mem c.parked seq) then begin
                let pbuf = Api.call ctx Import.uk_palloc [| 1 |] in
                ignore
                  (Api.call ctx Import.memcpy
                     [| pbuf; staging + Sysdefs.frame_header; len |]);
                Int_tbl.replace c.parked seq { pbuf; off = 0; len };
                let rec deliver () =
                  match Int_tbl.find_opt c.parked c.next_rx_seq with
                  | Some seg ->
                      Int_tbl.remove c.parked c.next_rx_seq;
                      c.next_rx_seq <- c.next_rx_seq + 1;
                      Queue.push seg c.rx;
                      deliver ()
                  | None -> ()
                in
                deliver ()
              end)
      | 2 (* fin *) -> (
          match Int_tbl.find_opt state.conns conn_id with
          | None -> ()
          | Some c -> c.fin_seen <- true)
      | _ -> ());
      loop ()
    end
  in
  loop ()

let listen_fn state _ctx (_args : int array) =
  state.listening <- true;
  Sysdefs.ok

(* [lwip_accept(shard?)]: pump that shard's ring and pop its backlog;
   the shard argument defaults to 0, so single-shard callers are
   unchanged. *)
let accept_fn state ctx (args : int array) =
  let shard = if Array.length args > 0 then args.(0) else 0 in
  if shard < 0 || shard >= state.nshards then Sysdefs.einval
  else begin
    pump state ctx shard;
    if Queue.is_empty state.pending_accept.(shard) then Sysdefs.eagain
    else Queue.pop state.pending_accept.(shard)
  end

let recv_fn state ctx (args : int array) =
  let conn_id = args.(0) and buf = args.(1) and maxlen = args.(2) in
  pump state ctx (shard_of_conn state conn_id);
  match Int_tbl.find_opt state.conns conn_id with
  | None -> Sysdefs.ebadf
  | Some c ->
      if Queue.is_empty c.rx then if c.fin_seen then Sysdefs.ebadf else 0
      else begin
        let seg = Queue.peek c.rx in
        let n = Int.min maxlen seg.len in
        ignore (Api.call ctx Import.memcpy [| buf; seg.pbuf + seg.off; n |]);
        seg.off <- seg.off + n;
        seg.len <- seg.len - n;
        if seg.len = 0 then begin
          ignore (Queue.pop c.rx);
          ignore (Api.call ctx Import.uk_pfree [| seg.pbuf |])
        end;
        n
      end

(* Send one segment: pbuf from ALLOC, header + payload copy, window it
   to NETDEV, transmit on the connection's ring, tear the window down,
   free the pbuf. *)
let send_segment state ctx ~conn_id ~seq ~src ~len =
  let pbuf = Api.call ctx Import.uk_palloc [| 1 |] in
  Api.write_u32 ctx pbuf conn_id;
  Api.write_u8 ctx (pbuf + 4) 1;
  Api.write_u32 ctx (pbuf + 5) seq;
  Api.write_u16 ctx (pbuf + 9) len;
  ignore (Api.call ctx Import.memcpy [| pbuf + Sysdefs.frame_header; src; len |]);
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  (* NETDEV only reads the pbuf on its way to the wire *)
  Api.window_add ctx ~perm:Window.R wid ~ptr:pbuf ~size:Hw.Addr.page_size;
  Api.window_open ctx wid state.netdev_cid;
  let r =
    Api.call ctx Import.netdev_tx
      [| pbuf; Sysdefs.frame_header + len; shard_of_conn state conn_id |]
  in
  Api.window_destroy ctx wid;
  ignore (Api.call ctx Import.uk_pfree [| pbuf |]);
  r

let send_fn state ctx (args : int array) =
  let conn_id = args.(0) and buf = args.(1) and len = args.(2) in
  pump state ctx (shard_of_conn state conn_id);
  match Int_tbl.find_opt state.conns conn_id with
  | None -> Sysdefs.ebadf
  | Some c ->
      if c.closed then Sysdefs.ebadf
      else begin
        let rec loop sent =
          if sent >= len then sent
          else begin
            let n = Int.min Sysdefs.mss (len - sent) in
            let seq = c.next_tx_seq in
            c.next_tx_seq <- seq + 1;
            (match send_segment state ctx ~conn_id ~seq ~src:(buf + sent) ~len:n with
            | r when r < 0 -> Types.error "lwip: netdev_tx failed (%d)" r
            | _ -> ());
            c.unacked <- c.unacked + n;
            if c.unacked >= Sysdefs.send_buffer then begin
              (* send buffer full: stall for the ack round trip *)
              Hw.Cost.charge (Monitor.cost ctx.Monitor.mon) Sysdefs.rtt_stall_cycles;
              c.unacked <- 0
            end;
            loop (sent + n)
          end
        in
        loop 0
      end

(* Zero-copy send: the payload stays in the caller's (file system's)
   pages, reachable through the grant window [owner_wid] the caller
   opened for LWIP. LWIP forwards that grant once to NETDEV
   (grant-and-forward, §5.6 nested chains), writes the 11-byte frame
   header into its own shard staging page — already standing-windowed
   to NETDEV — and hands NETDEV the (header, payload-span) pair to
   gather straight onto the wire. No payload byte is ever memcpy'd by
   the network stack. *)
let send_zc_fn state ctx (args : int array) =
  let conn_id = args.(0) and src = args.(1) and len = args.(2) and owner_wid = args.(3) in
  let shard = shard_of_conn state conn_id in
  pump state ctx shard;
  match Int_tbl.find_opt state.conns conn_id with
  | None -> Sysdefs.ebadf
  | Some c ->
      if c.closed then Sysdefs.ebadf
      else begin
        let owner = ctx.Monitor.caller in
        let key = forward_key ~owner owner_wid in
        if not (Int_tbl.mem state.forwarded key) then begin
          Api.window_forward ctx ~owner owner_wid state.netdev_cid;
          Int_tbl.replace state.forwarded key ()
        end;
        let hdr = state.rx_staging.(shard) + 2048 in
        let rec loop sent =
          if sent >= len then sent
          else begin
            let n = Int.min Sysdefs.mss (len - sent) in
            let seq = c.next_tx_seq in
            c.next_tx_seq <- seq + 1;
            Api.write_u32 ctx hdr conn_id;
            Api.write_u8 ctx (hdr + 4) 1;
            Api.write_u32 ctx (hdr + 5) seq;
            Api.write_u16 ctx (hdr + 9) n;
            (match
               Api.call ctx Import.netdev_tx_gather
                 [| hdr; Sysdefs.frame_header; src + sent; n; shard |]
             with
            | r when r < 0 -> Types.error "lwip: netdev_tx_gather failed (%d)" r
            | _ -> ());
            c.unacked <- c.unacked + n;
            if c.unacked >= Sysdefs.send_buffer then begin
              Hw.Cost.charge (Monitor.cost ctx.Monitor.mon) Sysdefs.rtt_stall_cycles;
              c.unacked <- 0
            end;
            loop (sent + n)
          end
        in
        loop 0
      end

let close_fn state ctx (args : int array) =
  match Int_tbl.find_opt state.conns args.(0) with
  | None -> Sysdefs.ebadf
  | Some c ->
      c.closed <- true;
      (* fin frame, via the connection's shard staging buffer *)
      let shard = shard_of_conn state args.(0) in
      let staging = state.rx_staging.(shard) in
      Api.write_u32 ctx staging args.(0);
      Api.write_u8 ctx (staging + 4) 2;
      Api.write_u32 ctx (staging + 5) c.next_tx_seq;
      Api.write_u16 ctx (staging + 9) 0;
      ignore (Api.call ctx Import.netdev_tx [| staging; Sysdefs.frame_header; shard |]);
      Int_tbl.remove state.conns args.(0);
      Sysdefs.ok

let init state ctx =
  state.netdev_cid <- Api.cid_of ctx "NETDEV";
  (* one standing window per shard plus a transient tx window — extend
     the heap descriptor array past its initial 8 slots if needed
     (paper §5.3: descriptor arrays are fixed-size, extended on
     request) *)
  let rec ensure cap need =
    if cap < need then begin
      Api.window_table_extend ctx ~klass:Mm.Page_meta.Heap;
      ensure (2 * cap) need
    end
  in
  ensure 8 (state.nshards + 2);
  for shard = 0 to state.nshards - 1 do
    state.rx_staging.(shard) <- Api.alloc_pages ctx 1 ~kind:Mm.Page_meta.Heap;
    (* standing window per shard: NETDEV fills the staging page on
       netdev_rx and reads fin frames from it on netdev_tx *)
    let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
    Api.window_add ctx wid ~ptr:state.rx_staging.(shard) ~size:Hw.Addr.page_size;
    Api.window_open ctx wid state.netdev_cid;
    state.staging_wids.(shard) <- wid
  done

let make ?(nshards = 1) () =
  if nshards < 1 then invalid_arg "Lwip.make: nshards must be >= 1";
  let state =
    {
      nshards;
      listening = false;
      conns = Int_tbl.create 16;
      pending_accept = Array.init nshards (fun _ -> Queue.create ());
      netdev_cid = -1;
      rx_staging = Array.make nshards 0;
      staging_wids = Array.make nshards 0;
      forwarded = Int_tbl.create 8;
    }
  in
  (* rx pump: drain frames from NETDEV into the standing staging page,
     then park payload copies in pbufs *)
  let pump_iface =
    [
      Iface.Loop
        [
          Iface.Call
            { sym = "netdev_rx"; ptr_args = [ (0, Iface.Local "rx_staging", 4096) ] };
          Iface.Call { sym = "uk_palloc"; ptr_args = [] };
          Iface.Call { sym = "memcpy"; ptr_args = [] };
        ];
    ]
  in
  (* tx: one short-lived window per segment pbuf, torn down after the
     transmit returns *)
  let send_iface =
    [
      Iface.Loop
        [
          Iface.Call { sym = "uk_palloc"; ptr_args = [] };
          Iface.Call { sym = "memcpy"; ptr_args = [] };
          Iface.Window_add
            {
              win = "tx_win";
              buf = Iface.Local "pbuf";
              bytes = 4096;
              standing = false;
              rw = false;
            };
          Iface.Window_open { win = "tx_win"; peer = "NETDEV" };
          Iface.Call { sym = "netdev_tx"; ptr_args = [ (0, Iface.Local "pbuf", 4096) ] };
          Iface.Window_destroy { win = "tx_win" };
          Iface.Call { sym = "uk_pfree"; ptr_args = [] };
        ];
    ]
  in
  (* one staging page + standing window per shard; shard 0 keeps the
     historical names so single-shard summaries are unchanged *)
  let init_iface =
    List.concat
      (List.init nshards (fun i ->
           let buf = if i = 0 then "rx_staging" else Printf.sprintf "rx_staging%d" i in
           let win = if i = 0 then "staging_wid" else Printf.sprintf "staging_wid%d" i in
           [
             Iface.Alloc { buf; bytes = 4096 };
             (* stays RW: NETDEV fills the staging page on netdev_rx *)
             Iface.Window_add
               { win; buf = Iface.Local buf; bytes = 4096; standing = true; rw = true };
             Iface.Window_open { win; peer = "NETDEV" };
           ]))
  in
  let exports =
    [
      Builder.export "lwip_listen" (listen_fn state) [];
      Builder.export "lwip_accept" (accept_fn state) pump_iface;
      Builder.export ~derefs:[ 1 ] ~writes:[ 1 ] "lwip_recv" (recv_fn state)
        (pump_iface
        @ [
            Iface.Call { sym = "memcpy"; ptr_args = [] };
            Iface.Branch [ [ Iface.Call { sym = "uk_pfree"; ptr_args = [] } ]; [] ];
          ]);
      Builder.export ~derefs:[ 1 ] "lwip_send" (send_fn state) (pump_iface @ send_iface);
      (* zero-copy send: LWIP itself never dereferences the payload
         (arg 1) — it forwards the span to NETDEV's gather transmit,
         with the frame header staged in the standing rx_staging
         window. The grant forward is modelled by the caller's summary
         (the window belongs to the file system, not to LWIP). *)
      Builder.export "lwip_send_zc" (send_zc_fn state)
        (pump_iface
        @ [
            Iface.Loop
              [
                Iface.Call
                  {
                    sym = "netdev_tx_gather";
                    ptr_args =
                      [
                        (0, Iface.Local "rx_staging", Sysdefs.frame_header);
                        (2, Iface.Param 1, 0);
                      ];
                  };
              ];
          ]);
      Builder.export "lwip_close" (close_fn state)
        [
          Iface.Call
            {
              sym = "netdev_tx";
              ptr_args = [ (0, Iface.Local "rx_staging", Sysdefs.frame_header) ];
            };
        ];
    ]
  in
  let comp =
    Builder.component "LWIP" ~code_ops:2048 ~heap_pages:(32 + nshards) ~stack_pages:4
      ~init:(init state)
      ~entries:[ Iface.fundecl "__init" init_iface ]
      ~exports
  in
  (state, comp)
