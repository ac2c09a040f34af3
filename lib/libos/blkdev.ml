open Cubicle

let sector_size = 512
let sector_cycles = 900 (* per-sector device + driver cost *)

type disk = { data : Bytes.t; sectors : int }

let create_disk ~sectors =
  if sectors <= 0 then invalid_arg "Blkdev.create_disk: need at least one sector";
  { data = Bytes.make (sectors * sector_size) '\000'; sectors }


type state = {
  disk : disk;
  mutable staging : int;  (* DMA page *)
  mutable writes : int;
}

let check_range state sector n =
  n > 0 && sector >= 0 && sector + n <= state.disk.sectors
  && n * sector_size <= Hw.Addr.page_size

let charge ctx n =
  Hw.Cost.charge (Monitor.cost ctx.Monitor.mon) (n * sector_cycles)

let read_fn state ctx (args : int array) =
  let buf = args.(0) and sector = args.(1) and n = args.(2) in
  if not (check_range state sector n) then Sysdefs.einval
  else begin
    let len = n * sector_size in
    (* disk -> DMA staging (device side), staging -> caller (checked) *)
    Hw.Cpu.priv_write_bytes ctx.Monitor.cpu state.staging
      (Bytes.sub state.disk.data (sector * sector_size) len);
    Api.memcpy ctx ~dst:buf ~src:state.staging ~len;
    charge ctx n;
    Sysdefs.ok
  end

let write_fn state ctx (args : int array) =
  let buf = args.(0) and sector = args.(1) and n = args.(2) in
  if not (check_range state sector n) then Sysdefs.einval
  else begin
    let len = n * sector_size in
    Api.memcpy ctx ~dst:state.staging ~src:buf ~len;
    Bytes.blit
      (Hw.Cpu.priv_read_bytes ctx.Monitor.cpu state.staging len)
      0 state.disk.data (sector * sector_size) len;
    charge ctx n;
    state.writes <- state.writes + n;
    Sysdefs.ok
  end

let capacity_fn state _ctx _ = state.disk.sectors

let init state ctx = state.staging <- Api.alloc_pages ctx 1 ~kind:Mm.Page_meta.Heap

let make disk =
  let state = { disk; staging = 0; writes = 0 } in
  let comp =
    Builder.component "BLKDEV" ~code_ops:512 ~heap_pages:4 ~stack_pages:2
      ~init:(init state)
      ~exports:
        [
          Builder.export ~derefs:[ 0 ] ~writes:[ 0 ] "blk_read" (read_fn state) [];
          Builder.export ~derefs:[ 0 ] "blk_write" (write_fn state) [];
          Builder.export "blk_capacity" (capacity_fn state) [];
        ]
  in
  (state, comp)

let writes state = state.writes
