(* Simulated memory lives off the OCaml heap, in one calloc'd block (see
   phys_mem_stubs.c): booting a machine touches none of it, untouched
   pages read as zero without ever becoming resident, and the major GC
   does not count the machine in its heap size. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external alloc : int -> t = "cubicle_phys_mem_alloc"

(* Copies between memory and host buffers. They check nothing, so every
   caller validates both ranges first. *)
external to_bytes : t -> int -> bytes -> int -> int -> unit = "cubicle_phys_mem_to_bytes"
[@@noalloc]

external of_bytes : bytes -> int -> t -> int -> int -> unit = "cubicle_phys_mem_of_bytes"
[@@noalloc]

external of_string : string -> int -> t -> int -> int -> unit = "cubicle_phys_mem_of_bytes"
[@@noalloc]

external move : t -> int -> int -> int -> unit = "cubicle_phys_mem_move" [@@noalloc]
external memset : t -> int -> int -> char -> unit = "cubicle_phys_mem_fill" [@@noalloc]

(* Native-endian unaligned loads and stores, inlined by ocamlopt; the
   accessors below swap on a big-endian host, as the stdlib's
   [Bytes.get_uint16_le] and friends do. *)
external get16 : t -> int -> int = "%caml_bigstring_get16u"
external set16 : t -> int -> int -> unit = "%caml_bigstring_set16u"
external get32 : t -> int -> int32 = "%caml_bigstring_get32u"
external set32 : t -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get64 : t -> int -> int64 = "%caml_bigstring_get64u"
external set64 : t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let create bytes = alloc (Addr.align_up (max bytes Addr.page_size))
let size t = Bigarray.Array1.dim t
let npages t = size t lsr Addr.page_shift

let check t addr len =
  if addr < 0 || len < 0 || addr > size t - len then
    invalid_arg (Printf.sprintf "Phys_mem: access [0x%x, +%d) out of memory" addr len)

(* The host side of a copy, checked as [Bytes.blit] checks it. *)
let check_host n pos len =
  if pos < 0 || len < 0 || pos > n - len then invalid_arg "Phys_mem: host range out of bounds"

(* Unsafe scalar accessors: no bounds check, for callers that have
   already proven the access in-bounds (the CPU's checked accessors,
   after their permission check). The u32 variants avoid Int32 boxing:
   the load is consumed in place. The [t] annotations let ocamlopt
   inline the Bigarray primitives for the char kind. *)

let[@inline] unsafe_get_u8 (t : t) addr = Char.code (Bigarray.Array1.unsafe_get t addr)

let[@inline] unsafe_set_u8 (t : t) addr v =
  Bigarray.Array1.unsafe_set t addr (Char.unsafe_chr (v land 0xFF))

let[@inline] unsafe_get_u16 t addr =
  let v = get16 t addr in
  if Sys.big_endian then swap16 v else v

let[@inline] unsafe_set_u16 t addr v =
  let v = v land 0xFFFF in
  set16 t addr (if Sys.big_endian then swap16 v else v)

let[@inline] unsafe_get_u32 t addr =
  let v = get32 t addr in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFF_FFFF

let[@inline] unsafe_set_u32 t addr v =
  let v = Int32.of_int v in
  set32 t addr (if Sys.big_endian then swap32 v else v)

let[@inline] unsafe_get_i64 t addr =
  let v = get64 t addr in
  if Sys.big_endian then swap64 v else v

let[@inline] unsafe_set_i64 t addr v = set64 t addr (if Sys.big_endian then swap64 v else v)

let read_bytes t addr len =
  check t addr len;
  let b = Bytes.create len in
  to_bytes t addr b 0 len;
  b

let write_bytes t addr b =
  let len = Bytes.length b in
  check t addr len;
  of_bytes b 0 t addr len

let read_into t addr buf ~pos ~len =
  check t addr len;
  check_host (Bytes.length buf) pos len;
  to_bytes t addr buf pos len

let write_sub t addr buf ~pos ~len =
  check t addr len;
  check_host (Bytes.length buf) pos len;
  of_bytes buf pos t addr len

let write_string t addr s =
  let len = String.length s in
  check t addr len;
  of_string s 0 t addr len

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  move t src dst len

let fill t addr len c =
  check t addr len;
  memset t addr len c
