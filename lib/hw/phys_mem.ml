type t = { data : Bytes.t; npages : int }

let create bytes =
  let sz = Addr.align_up (max bytes Addr.page_size) in
  { data = Bytes.make sz '\000'; npages = sz lsr Addr.page_shift }

let size t = Bytes.length t.data
let npages t = t.npages

let check t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.data then
    invalid_arg (Printf.sprintf "Phys_mem: access [0x%x, +%d) out of memory" addr len)

(* Unsafe scalar accessors: no bounds check, for callers that have
   already proven the access in-bounds (the CPU's TLB fast path — a
   live TLB entry implies the page, and so the whole single-page
   access, lies inside memory). The u32 variants also dodge the Int32
   boxing of [Bytes.get_int32_le]. *)

let unsafe_get_u8 t addr = Char.code (Bytes.unsafe_get t.data addr)

let unsafe_set_u8 t addr v = Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let unsafe_get_u16 t addr =
  Char.code (Bytes.unsafe_get t.data addr)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 1)) lsl 8)

let unsafe_set_u16 t addr v =
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let unsafe_get_u32 t addr =
  unsafe_get_u16 t addr lor (unsafe_get_u16 t (addr + 2) lsl 16)

let unsafe_set_u32 t addr v =
  unsafe_set_u16 t addr (v land 0xFFFF);
  unsafe_set_u16 t (addr + 2) ((v lsr 16) land 0xFFFF)

let get_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.data addr)

let set_u8 t addr v =
  check t addr 1;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let get_u16 t addr =
  check t addr 2;
  Bytes.get_uint16_le t.data addr

let set_u16 t addr v =
  check t addr 2;
  Bytes.set_uint16_le t.data addr (v land 0xFFFF)

let get_u32 t addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let set_u32 t addr v =
  check t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let get_i64 t addr =
  check t addr 8;
  Bytes.get_int64_le t.data addr

let set_i64 t addr v =
  check t addr 8;
  Bytes.set_int64_le t.data addr v

let read_bytes t addr len =
  check t addr len;
  Bytes.sub t.data addr len

let write_bytes t addr b =
  check t addr (Bytes.length b);
  Bytes.blit b 0 t.data addr (Bytes.length b)

let read_into t addr buf ~pos ~len =
  check t addr len;
  Bytes.blit t.data addr buf pos len

let write_sub t addr buf ~pos ~len =
  check t addr len;
  Bytes.blit buf pos t.data addr len

let write_string t addr s =
  check t addr (String.length s);
  Bytes.blit_string s 0 t.data addr (String.length s)

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  Bytes.blit t.data src t.data dst len

let fill t addr len c =
  check t addr len;
  Bytes.fill t.data addr len c
