(* Unit and property tests for the simulated hardware (lib/hw). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Addr ---------------------------------------------------------------- *)

let test_addr_basics () =
  check_int "page size" 4096 Hw.Addr.page_size;
  check_int "page of 0" 0 (Hw.Addr.page_of 0);
  check_int "page of 4095" 0 (Hw.Addr.page_of 4095);
  check_int "page of 4096" 1 (Hw.Addr.page_of 4096);
  check_int "base of page 3" 12288 (Hw.Addr.base_of_page 3);
  check_int "offset" 123 (Hw.Addr.offset (8192 + 123));
  check_int "align_up exact" 4096 (Hw.Addr.align_up 4096);
  check_int "align_up up" 8192 (Hw.Addr.align_up 4097);
  check_int "align_down" 4096 (Hw.Addr.align_down 8191);
  check_int "pages_for 0" 0 (Hw.Addr.pages_for 0);
  check_int "pages_for 1" 1 (Hw.Addr.pages_for 1);
  check_int "pages_for 4096" 1 (Hw.Addr.pages_for 4096);
  check_int "pages_for 4097" 2 (Hw.Addr.pages_for 4097);
  check_bool "aligned" true (Hw.Addr.is_aligned 8192);
  check_bool "unaligned" false (Hw.Addr.is_aligned 8193)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr: page_of/base_of_page/offset reconstruct"
    QCheck.(int_bound 100_000_000)
    (fun a -> Hw.Addr.base_of_page (Hw.Addr.page_of a) + Hw.Addr.offset a = a)

(* --- Pkru ---------------------------------------------------------------- *)

let test_pkru_basics () =
  let r = Hw.Pkru.all_deny in
  check_bool "deny read" false (Hw.Pkru.can_read r 3);
  check_bool "deny write" false (Hw.Pkru.can_write r 3);
  let r = Hw.Pkru.allow r 3 in
  check_bool "allow read" true (Hw.Pkru.can_read r 3);
  check_bool "allow write" true (Hw.Pkru.can_write r 3);
  check_bool "others still denied" false (Hw.Pkru.can_read r 4);
  let r = Hw.Pkru.allow_read_only r 3 in
  check_bool "ro read" true (Hw.Pkru.can_read r 3);
  check_bool "ro write" false (Hw.Pkru.can_write r 3)

let test_pkru_all_allow () =
  for k = 0 to Hw.Pkru.nkeys - 1 do
    check_bool "read" true (Hw.Pkru.can_read Hw.Pkru.all_allow k);
    check_bool "write" true (Hw.Pkru.can_write Hw.Pkru.all_allow k)
  done

let test_pkru_of_keys () =
  let r = Hw.Pkru.of_keys [ 1; 15 ] in
  check_bool "key 1 rw" true (Hw.Pkru.can_write r 1);
  check_bool "key 15 rw" true (Hw.Pkru.can_write r 15);
  check_bool "key 0 denied" false (Hw.Pkru.can_read r 0);
  check_bool "key 7 denied" false (Hw.Pkru.can_read r 7)

let test_pkru_bad_key () =
  Alcotest.check_raises "key 16 rejected" (Invalid_argument "Pkru: key 16 out of range")
    (fun () -> ignore (Hw.Pkru.can_read Hw.Pkru.all_allow 16))

let prop_pkru_deny_allow_inverse =
  QCheck.Test.make ~name:"pkru: allow after deny restores rw"
    QCheck.(int_bound 15)
    (fun k ->
      let r = Hw.Pkru.allow (Hw.Pkru.deny Hw.Pkru.all_allow k) k in
      Hw.Pkru.can_read r k && Hw.Pkru.can_write r k)

(* --- Page_table ---------------------------------------------------------- *)

let test_page_table () =
  let pt = Hw.Page_table.create 8 in
  check_bool "absent" false (Hw.Page_table.present pt 5);
  Hw.Page_table.set_present pt 5 true;
  check_bool "present" true (Hw.Page_table.present pt 5);
  Hw.Page_table.set_perm pt 5 Hw.Page_table.perm_rw;
  let p = Hw.Page_table.perm pt 5 in
  check_bool "r" true p.r;
  check_bool "w" true p.w;
  check_bool "x" false p.x;
  Hw.Page_table.set_key pt 5 9;
  check_int "key" 9 (Hw.Page_table.key pt 5);
  (* perm and key are independent *)
  Hw.Page_table.set_perm pt 5 Hw.Page_table.perm_x;
  check_int "key preserved" 9 (Hw.Page_table.key pt 5);
  check_bool "now exec-only" true (Hw.Page_table.perm pt 5).x;
  check_bool "no read" false (Hw.Page_table.perm pt 5).r

let test_page_table_allows () =
  let open Hw.Page_table in
  let pt = create 3 in
  List.iteri (set_perm pt) [ perm_rw; perm_x; perm_r ];
  check_bool "rw allows read" true (allows pt 0 Hw.Fault.Read);
  check_bool "rw allows write" true (allows pt 0 Hw.Fault.Write);
  check_bool "rw denies exec" false (allows pt 0 Hw.Fault.Exec);
  check_bool "x allows exec" true (allows pt 1 Hw.Fault.Exec);
  check_bool "x denies read" false (allows pt 1 Hw.Fault.Read);
  check_bool "r denies write" false (allows pt 2 Hw.Fault.Write);
  (* the in-place bit test agrees with the decoded record, all eight
     permissions, present or not and under any key *)
  for bits = 0 to 7 do
    let p = { r = bits land 1 <> 0; w = bits land 2 <> 0; x = bits land 4 <> 0 } in
    set_perm pt 1 p;
    set_key pt 1 bits;
    set_present pt 1 (bits land 1 = 0);
    List.iter
      (fun (a, allowed) -> check_bool "agrees with perm" allowed (allows pt 1 a))
      [ (Hw.Fault.Read, p.r); (Hw.Fault.Write, p.w); (Hw.Fault.Exec, p.x) ]
  done

(* --- Phys_mem ------------------------------------------------------------ *)

let test_phys_mem_scalars () =
  let m = Hw.Phys_mem.create 8192 in
  Hw.Phys_mem.unsafe_set_u8 m 100 0x1AB;
  check_int "u8" 0xAB (Hw.Phys_mem.unsafe_get_u8 m 100);
  Hw.Phys_mem.unsafe_set_u16 m 200 0xBEEF;
  check_int "u16" 0xBEEF (Hw.Phys_mem.unsafe_get_u16 m 200);
  check_int "u16 little-endian" 0xEF (Hw.Phys_mem.unsafe_get_u8 m 200);
  Hw.Phys_mem.unsafe_set_u32 m 300 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Hw.Phys_mem.unsafe_get_u32 m 300);
  Hw.Phys_mem.unsafe_set_i64 m 400 0x1122334455667788L;
  Alcotest.(check int64) "i64" 0x1122334455667788L (Hw.Phys_mem.unsafe_get_i64 m 400)

let test_phys_mem_blit_overlap () =
  let m = Hw.Phys_mem.create 4096 in
  Hw.Phys_mem.write_string m 0 "abcdefgh";
  Hw.Phys_mem.blit m ~src:0 ~dst:2 ~len:6;
  Alcotest.(check string) "memmove semantics" "ababcdef"
    (Bytes.to_string (Hw.Phys_mem.read_bytes m 0 8))

let test_phys_mem_bounds () =
  let m = Hw.Phys_mem.create 4096 in
  Alcotest.check_raises "oob write"
    (Invalid_argument "Phys_mem: access [0x1000, +1) out of memory") (fun () ->
      Hw.Phys_mem.write_string m 4096 "x");
  Alcotest.check_raises "a length that overflows the bound"
    (Invalid_argument (Printf.sprintf "Phys_mem: access [0xa, +%d) out of memory" max_int))
    (fun () -> Hw.Phys_mem.fill m 10 max_int 'x')

(* Random access scripts against the [Bytes] model in [Oracle.Mem], on a
   three-page memory so that accesses straddle page boundaries and run
   off either end. Each step must return what the model returns and
   raise exactly when it raises (the unchecked scalars run only in
   range, as their callers guarantee); after every step the two memories,
   and the host buffer of a [read_into], hold the same bytes, so an
   access that raises has moved nothing. *)
type width = W8 | W16 | W32 | W64

type mem_op =
  | Get of width * int  (* the unchecked scalars, run only when in range *)
  | Set of width * int * int64
  | Read_into of int * int * int * int  (* addr, host buffer size, pos, len *)
  | Write_sub of int * string * int * int  (* addr, source, pos, len *)
  | Write_string of int * string
  | Blit of int * int * int  (* src, dst, len *)
  | Fill of int * int * char

let mem_pages = 3
let mem_size = mem_pages * Hw.Addr.page_size

let width_bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let pp_mem_op = function
  | Get (w, a) -> Printf.sprintf "get%d(%d)" (width_bits w) a
  | Set (w, a, v) -> Printf.sprintf "set%d(%d,%Ld)" (width_bits w) a v
  | Read_into (a, n, pos, len) -> Printf.sprintf "read_into(%d,buf%d,pos %d,len %d)" a n pos len
  | Write_sub (a, s, pos, len) -> Printf.sprintf "write_sub(%d,%S,pos %d,len %d)" a s pos len
  | Write_string (a, s) -> Printf.sprintf "write_string(%d,%S)" a s
  | Blit (src, dst, len) -> Printf.sprintf "blit(%d->%d,%d)" src dst len
  | Fill (a, len, c) -> Printf.sprintf "fill(%d,%d,%C)" a len c

let gen_mem_script =
  let open QCheck.Gen in
  (* mostly near a page boundary or an end of memory, sometimes past it *)
  let addr =
    frequency
      [
        (3, map2 (fun p d -> (p * Hw.Addr.page_size) + d) (int_bound mem_pages) (int_range (-12) 12));
        (2, int_bound (mem_size - 1));
        (1, int_range (-40) (mem_size + 40));
      ]
  in
  let len = frequency [ (6, int_bound 40); (1, int_range 4000 4200); (1, int_range (-3) (-1)) ] in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let value = map Int64.of_int (int_bound max_int) in
  let text = string_size ~gen:printable (int_bound 40) in
  let op =
    frequency
      [
        (3, map2 (fun w a -> Get (w, a)) width addr);
        (4, map3 (fun w a v -> Set (w, a, v)) width addr value);
        (2, map3 (fun a n (pos, l) -> Read_into (a, n, pos, l)) addr (int_bound 64) (pair (int_range (-2) 66) len));
        (2, map3 (fun a s (pos, l) -> Write_sub (a, s, pos, l)) addr text (pair (int_range (-2) 42) len));
        (2, map2 (fun a s -> Write_string (a, s)) addr text);
        (2, map3 (fun src dst l -> Blit (src, dst, l)) addr addr len);
        (1, map3 (fun a l c -> Fill (a, l, c)) addr len printable);
      ]
  in
  list_size (int_range 1 60) op

let prop_phys_mem_matches_model =
  QCheck.Test.make ~count:300 ~name:"phys_mem: scripts agree with a Bytes model"
    (QCheck.make ~print:(QCheck.Print.list pp_mem_op) gen_mem_script)
    (fun script ->
      let module M = Hw.Phys_mem in
      let module R = Oracle.Mem in
      let m = M.create mem_size and r = R.create mem_size in
      let outcome f = match f () with v -> Ok v | exception Invalid_argument _ -> Error () in
      let in_range a n = a >= 0 && a + n <= mem_size in
      let step = function
        | Get (w, a) ->
            let n, get, model =
              match w with
              | W8 -> (1, M.unsafe_get_u8, R.get_u8)
              | W16 -> (2, M.unsafe_get_u16, R.get_u16)
              | W32 -> (4, M.unsafe_get_u32, R.get_u32)
              | W64 ->
                  let i64 f t a = Int64.to_int (f t a) in
                  (8, i64 M.unsafe_get_i64, i64 R.get_i64)
            in
            (not (in_range a n)) || get m a = model r a
        | Set (w, a, v) ->
            let n, set, model =
              match w with
              | W8 -> (1, M.unsafe_set_u8, R.set_u8)
              | W16 -> (2, M.unsafe_set_u16, R.set_u16)
              | W32 -> (4, M.unsafe_set_u32, R.set_u32)
              | W64 ->
                  let i64 f t a v = f t a (Int64.of_int v) in
                  (8, i64 M.unsafe_set_i64, i64 R.set_i64)
            in
            let v = Int64.to_int v in
            (not (in_range a n)) || (set m a v; model r a v; true)
        | Read_into (a, n, pos, len) ->
            let host = Bytes.init n (fun i -> Char.chr (65 + (i mod 26))) in
            let model_host = Bytes.copy host in
            outcome (fun () -> M.read_into m a host ~pos ~len)
            = outcome (fun () -> R.read_into r a model_host ~pos ~len)
            && Bytes.equal host model_host
        | Write_sub (a, s, pos, len) ->
            let b = Bytes.of_string s in
            outcome (fun () -> M.write_sub m a b ~pos ~len)
            = outcome (fun () -> R.write_sub r a b ~pos ~len)
        | Write_string (a, s) ->
            outcome (fun () -> M.write_string m a s) = outcome (fun () -> R.write_string r a s)
        | Blit (src, dst, len) ->
            outcome (fun () -> M.blit m ~src ~dst ~len)
            = outcome (fun () -> R.blit r ~src ~dst ~len)
        | Fill (a, len, c) ->
            outcome (fun () -> M.fill m a len c) = outcome (fun () -> R.fill r a len c)
      in
      List.for_all
        (fun op -> step op && Bytes.equal (M.read_bytes m 0 mem_size) r)
        script)

(* Memory comes zeroed without being written at boot: a 512 MiB
   machine reads zero at random pages nobody has touched. *)
let big_mem = lazy (Hw.Phys_mem.create (512 * 1024 * 1024))
let zero_page = Bytes.make Hw.Addr.page_size '\000'

let prop_untouched_pages_read_zero =
  QCheck.Test.make ~count:100 ~name:"phys_mem: untouched pages of a 512 MiB machine read zero"
    QCheck.(pair (int_bound ((512 * 256) - 1)) (int_bound (Hw.Addr.page_size - 8)))
    (fun (page, off) ->
      let m = Lazy.force big_mem in
      let base = Hw.Addr.base_of_page page in
      Hw.Phys_mem.npages m = 512 * 256
      && Hw.Phys_mem.unsafe_get_i64 m (base + off) = 0L
      && Bytes.equal (Hw.Phys_mem.read_bytes m base Hw.Addr.page_size) zero_page)

(* --- Instr --------------------------------------------------------------- *)

let test_instr_roundtrip () =
  let instrs =
    [
      Hw.Instr.Nop;
      Hw.Instr.Ret;
      Hw.Instr.Halt;
      Hw.Instr.Jmp 1234;
      Hw.Instr.Call (-56);
      Hw.Instr.Mov_imm (3, 99);
      Hw.Instr.Load (1, 4096);
      Hw.Instr.Store (2, 8192);
      Hw.Instr.Add (1, 2);
      Hw.Instr.Wrpkru;
      Hw.Instr.Rdpkru;
      Hw.Instr.Syscall;
    ]
  in
  let code = Hw.Instr.assemble instrs in
  let rec decode_all off acc =
    if off >= Bytes.length code then List.rev acc
    else
      match Hw.Instr.decode code off with
      | Some (i, next) -> decode_all next (i :: acc)
      | None -> Alcotest.failf "decode failed at offset %d" off
  in
  Alcotest.(check int) "same count" (List.length instrs) (List.length (decode_all 0 []));
  List.iter2
    (fun a b -> check_bool "instr equal" true (a = b))
    instrs (decode_all 0 [])

let test_scan_finds_wrpkru () =
  let code = Hw.Instr.assemble [ Nop; Nop; Wrpkru; Ret ] in
  match Hw.Instr.scan_forbidden code with
  | [ { offset; what } ] ->
      check_int "offset" 2 offset;
      Alcotest.(check string) "what" "wrpkru" what
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l)

let test_scan_finds_syscall () =
  let code = Hw.Instr.assemble [ Syscall ] in
  check_int "one hit" 1 (List.length (Hw.Instr.scan_forbidden code))

let test_scan_misaligned_sequence () =
  (* A wrpkru sequence hidden inside a mov immediate: the bytes
     0F 01 EF appear in the immediate, not as a decoded instruction.
     The scanner must still find it (ERIM-style). *)
  let imm = 0x00EF010F in
  let code = Hw.Instr.assemble [ Mov_imm (1, imm); Ret ] in
  let hits = Hw.Instr.scan_forbidden code in
  check_bool "found hidden wrpkru" true
    (List.exists (fun h -> h.Hw.Instr.what = "wrpkru") hits)

let test_scan_clean_code () =
  let code = Hw.Instr.assemble [ Nop; Mov_imm (1, 42); Load (1, 100); Ret ] in
  check_int "no hits" 0 (List.length (Hw.Instr.scan_forbidden code))

(* Adjacent, overlapping and end-truncated sequences, against the
   oracle and by value. *)
let test_scan_edge_cases () =
  let hits s =
    let code = Bytes.of_string s in
    let got = Hw.Instr.scan_forbidden code in
    check_bool
      (String.escaped s ^ " agrees with oracle")
      true
      (got = Oracle.scan_forbidden code);
    List.map (fun h -> (h.Hw.Instr.offset, h.what)) got
  in
  let check_hits s want =
    Alcotest.(check (list (pair int string))) (String.escaped s) want (hits s)
  in
  check_hits "" [];
  check_hits "\x0F" [];
  check_hits "\x0F\x01" [];
  check_hits "\x90\x0F\x01" [];
  check_hits "\x0F\x05\x0F\x01\xEF" [ (0, "syscall"); (2, "wrpkru") ];
  check_hits "\x0F\x0F\x05" [ (1, "syscall") ];
  check_hits "\x0F\x01\x0F\x05" [ (2, "syscall") ];
  check_hits "\x0F\x01\x0F\x01\xEF" [ (2, "wrpkru") ];
  check_hits "\x0F\x01\xEF\x0F\x05\x0F" [ (0, "wrpkru"); (3, "syscall") ];
  check_hits "\x0F\x05\x0F\x05" [ (0, "syscall"); (2, "syscall") ]

let test_synth_code_safe () =
  (* Synthesized component images must never contain forbidden bytes. *)
  List.iter
    (fun name ->
      let code = Hw.Instr.synth_code ~ops:2048 name in
      check_int (name ^ " clean") 0 (List.length (Hw.Instr.scan_forbidden code)))
    [ "VFSCORE"; "RAMFS"; "LWIP"; "NGINX"; "SQLITE"; "ALLOC"; "TIME"; "PLAT" ]

let test_synth_code_deterministic () =
  let a = Hw.Instr.synth_code "X" and b = Hw.Instr.synth_code "X" in
  check_bool "stable" true (Bytes.equal a b)

(* Nothing simulated reads code bytes (cycles depend only on an image's
   length), so no cycle golden would notice a change to the stream:
   these digests pin it, for every component the library boots at its
   [code_ops] and for the tenant pairs of the key-pressure workloads. *)
let synth_digests =
  [
    ("PLAT", 512, "d659ffd0ed278e4db4e79d61f6067e20");
    ("TIME", 128, "1cd39024bdb5e0dd214445418936ec8e");
    ("ALLOC", 384, "d0c8a76d84c926bc0069fee877ca1080");
    ("VFSCORE", 1024, "fe15c69d16b863e436d6215ec062fb4e");
    ("RAMFS", 768, "2f901e5d1db2cc39b3f86ce781f358f0");
    ("VFSCORE+RAMFS", 1792, "6dfe3278bcb90bb637ba89fef05341a2");
    ("NETDEV", 640, "b40bfe4360bf437f4b5de8c689a6f810");
    ("LWIP", 2048, "ad92e1a5c3f5ce85fcc2c7cb56d9f896");
    ("NGINX", 2048, "9e1646f35a90ffce95228f1009318a0e");
    ("LIBC", 512, "2aaa83dd03ad8d00bd4ff591a5000c2e");
    ("BLKDEV", 512, "1f2ca48f9eac56a4bb792dcda9e4b58c");
    ("UKFAT", 1024, "0049e1f5a692932d3c3f7375cbea9a7e");
    ("SQLITE", 256, "c013b4e4f405f79d4f9f69c3a927637f");
    ("APP", 256, "b43a69bd2ec89404ae88907874f41242");
    ("GW", 256, "ada877fbe3ef11fe950fe753b84fe381");
  ]

let test_synth_code_pinned () =
  let hex b = Digest.to_hex (Digest.bytes b) in
  List.iter
    (fun (name, ops, digest) ->
      Alcotest.(check string) name digest (hex (Hw.Instr.synth_code ~ops name)))
    synth_digests;
  let b = Buffer.create (1 lsl 20) in
  for i = 1 to 256 do
    Buffer.add_bytes b (Hw.Instr.synth_code (Printf.sprintf "TFS%d" i));
    Buffer.add_bytes b (Hw.Instr.synth_code (Printf.sprintf "TWEB%d" i))
  done;
  Alcotest.(check string)
    "TFS1..256 + TWEB1..256" "433991652880b32c4b14301efd25dbb6"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Cpu ----------------------------------------------------------------- *)

let mk_cpu () =
  let cpu = Hw.Cpu.create ~mem_bytes:(64 * 4096) () in
  (* identity-map all pages rw, key 0 *)
  for p = 0 to Hw.Cpu.npages cpu - 1 do
    Hw.Cpu.map_page cpu p Hw.Page_table.perm_rw ~key:0
  done;
  cpu

let test_cpu_rw_roundtrip () =
  let cpu = mk_cpu () in
  Hw.Cpu.write_u32 cpu 5000 0xCAFE;
  check_int "u32" 0xCAFE (Hw.Cpu.read_u32 cpu 5000);
  Hw.Cpu.write_string cpu 6000 "hello";
  Alcotest.(check string) "str" "hello"
    (Bytes.to_string (Hw.Cpu.read_bytes cpu 6000 5))

let test_cpu_not_present_fault () =
  let cpu = mk_cpu () in
  Hw.Cpu.unmap_page cpu 3;
  Alcotest.check_raises "not present"
    (Hw.Fault.Violation
       ( { Hw.Fault.addr = 4096 * 3; access = Hw.Fault.Read; key = 0; reason = Hw.Fault.Not_present },
         "?" ))
    (fun () -> ignore (Hw.Cpu.read_u8 cpu (4096 * 3)))

let test_cpu_page_perm_fault () =
  let cpu = mk_cpu () in
  Hw.Cpu.map_page cpu 4 Hw.Page_table.perm_r ~key:0;
  (* reads fine, writes fault *)
  ignore (Hw.Cpu.read_u8 cpu (4096 * 4));
  check_bool "write faults" true
    (try
       Hw.Cpu.write_u8 cpu (4096 * 4) 1;
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Page_perm)

let test_cpu_mpk_disabled_ignores_keys () =
  let cpu = mk_cpu () in
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_deny;
  (* MPK off: key is ignored *)
  Hw.Cpu.write_u8 cpu (4096 * 5) 1;
  check_int "read back" 1 (Hw.Cpu.read_u8 cpu (4096 * 5))

let test_cpu_mpk_key_fault () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  check_bool "key fault on read" true
    (try
       ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm && f.key = 7)

let test_cpu_mpk_write_disable () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.allow_read_only (Hw.Pkru.of_keys [ 0 ]) 7);
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  check_bool "wd blocks write" true
    (try
       Hw.Cpu.write_u8 cpu (4096 * 5) 1;
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm)

let test_cpu_handler_resolves () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  let resolved = ref 0 in
  Hw.Cpu.set_handler cpu
    (Some
       (fun cpu f ->
         incr resolved;
         (* retag the faulting page to an allowed key: trap-and-map *)
         Hw.Cpu.set_page_key cpu (Hw.Addr.page_of f.Hw.Fault.addr) 0;
         true));
  Hw.Cpu.write_u8 cpu (4096 * 5) 42;
  check_int "one fault" 1 !resolved;
  check_int "value stored" 42 (Hw.Cpu.read_u8 cpu (4096 * 5));
  check_int "no second fault" 1 !resolved

let test_cpu_handler_lies () =
  (* A handler that claims resolution but does not fix the permission
     must not cause an infinite loop: the access re-checks once and
     raises. *)
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  Hw.Cpu.set_handler cpu (Some (fun _ _ -> true));
  check_bool "still violates" true
    (try
       Hw.Cpu.write_u8 cpu (4096 * 5) 1;
       false
     with Hw.Fault.Violation _ -> true)

let test_cpu_exec_follows_access () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 6 Hw.Page_table.perm_x ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  (* stock MPK: exec not checked against PKRU *)
  Hw.Cpu.fetch cpu (4096 * 6) 4;
  (* modified MPK (the paper's hardware change): AD implies NX *)
  Hw.Cpu.set_exec_follows_access cpu true;
  check_bool "exec now faults" true
    (try
       Hw.Cpu.fetch cpu (4096 * 6) 4;
       false
     with Hw.Fault.Violation (f, _) -> f.access = Hw.Fault.Exec)

let test_cpu_blit_checks_both_sides () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 7 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  Hw.Cpu.write_string cpu 100 "data";
  check_bool "memcpy to protected page faults" true
    (try
       Hw.Cpu.memcpy cpu ~dst:(4096 * 7) ~src:100 ~len:4;
       false
     with Hw.Fault.Violation _ -> true)

let test_cpu_range_crossing_pages () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 9 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  (* a write spanning page 8 (allowed) into page 9 (denied) faults *)
  check_bool "spanning write faults" true
    (try
       Hw.Cpu.write_bytes cpu (4096 * 9 - 2) (Bytes.make 4 'x');
       false
     with Hw.Fault.Violation (f, _) -> Hw.Addr.page_of f.Hw.Fault.addr = 9)

let test_cpu_costs () =
  let cpu = mk_cpu () in
  let c0 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_allow;
  let c1 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  check_int "wrpkru cost" Hw.Cost.default_model.wrpkru (c1 - c0);
  Hw.Cpu.set_page_key cpu 1 3;
  let c2 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  check_int "pkey cost" Hw.Cost.default_model.pkey_set (c2 - c1);
  check_int "wrpkru counted" 1 (Hw.Cpu.wrpkru_count cpu)

(* A range that is not wholly inside memory faults [Not_present] at its
   start and charges nothing, with the TLB on or off and with the
   range's page TLB-hot: no [addr + len] may overflow the bounds
   test. *)
let test_cpu_out_of_memory_ranges () =
  let size = 64 * 4096 in
  let accesses =
    [
      ("memset 10 max_int", 10, Hw.Fault.Write, fun cpu -> Hw.Cpu.memset cpu 10 max_int 'x');
      ("read_u32 (max_int - 3)", max_int - 3, Hw.Fault.Read, fun cpu -> ignore (Hw.Cpu.read_u32 cpu (max_int - 3)));
      ("read_u8 at the end", size, Hw.Fault.Read, fun cpu -> ignore (Hw.Cpu.read_u8 cpu size));
      ("read_u16 across the end", size - 1, Hw.Fault.Read, fun cpu -> ignore (Hw.Cpu.read_u16 cpu (size - 1)));
      ("write_i64 at min_int", min_int, Hw.Fault.Write, fun cpu -> Hw.Cpu.write_i64 cpu min_int 1L);
      ("check_read 4095 (max_int - 4000)", 4095, Hw.Fault.Read, fun cpu -> Hw.Cpu.check_read cpu 4095 (max_int - 4000));
      ("fetch 0 max_int", 0, Hw.Fault.Exec, fun cpu -> Hw.Cpu.fetch cpu 0 max_int);
      ("memcpy src near max_int", max_int - 1, Hw.Fault.Read, fun cpu -> Hw.Cpu.memcpy cpu ~dst:0 ~src:(max_int - 1) ~len:2);
    ]
  in
  List.iter
    (fun tlb ->
      List.iter
        (fun (what, addr, access, f) ->
          let cpu = mk_cpu () in
          Hw.Cpu.map_page cpu 0 { Hw.Page_table.r = true; w = true; x = true } ~key:0;
          Hw.Cpu.set_tlb_enabled cpu tlb;
          (* leave page 0's and the last page's decisions cached *)
          Hw.Cpu.write_u8 cpu 10 1;
          ignore (Hw.Cpu.read_u8 cpu 10);
          Hw.Cpu.fetch cpu 0 1;
          ignore (Hw.Cpu.read_u8 cpu (size - 1));
          let cycles = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
          let what = Printf.sprintf "%s, tlb %b" what tlb in
          Alcotest.check_raises what
            (Hw.Fault.Violation ({ Hw.Fault.addr; access; key = 0; reason = Hw.Fault.Not_present }, "?"))
            (fun () -> f cpu);
          check_int (what ^ ": nothing charged") cycles (Hw.Cost.cycles (Hw.Cpu.cost cpu)))
        accesses)
    [ true; false ]

(* --- Tlb ------------------------------------------------------------------ *)

(* (a) A cached allow decision must die with the page's key: retag to a
   key the (unchanged) PKRU denies and the very next access faults. *)
let test_tlb_set_key_invalidates () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0; 7 ]);
  (* warm the TLB entry for page 5 *)
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  (* monitor-style retag to a foreign key, PKRU untouched *)
  Hw.Cpu.set_page_key cpu 5 9;
  check_bool "faults after retag" true
    (try
       ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm && f.key = 9)

(* (b) Full system: after a window is closed and the monitor has
   retagged the page back to its owner, a further call into the callee
   must fault (and be rejected) — no stale allow may survive in the
   TLB. *)
let test_tlb_window_close_observed () =
  let open Cubicle in
  let mon = Monitor.create ~protection:Types.Full () in
  let foo =
    Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8
      ~stack_pages:2
  in
  let bar =
    Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8
      ~stack_pages:2
  in
  Monitor.register_exports mon bar
    [
      {
        Monitor.sym = "bar_peek";
        fn = (fun ctx a -> Api.read_u8 ctx a.(0));
        stack_bytes = 0;
      };
    ];
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 4096 in
  Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 42);
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:4096;
  Api.window_open ctx wid bar;
  check_int "peek through open window" 42
    (Monitor.call mon ~caller:foo (Monitor.import "bar_peek") [| buf |]);
  Api.window_close ctx wid bar;
  (* the owner touches the page: causal revocation retags it to FOO *)
  Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 43);
  check_bool "closed window is closed" true
    (try
       ignore (Monitor.call mon ~caller:foo (Monitor.import "bar_peek") [| buf |]);
       false
     with Hw.Fault.Violation _ -> true)

(* (c) A PKRU write must be observed by the next access. *)
let test_tlb_wrpkru_observed () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0; 7 ]);
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  check_bool "faults after wrpkru" true
    (try
       ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm);
  (* flipping back re-allows *)
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0; 7 ]);
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5))

(* (d) Counters behave, and simulated cycles are identical on/off. *)
let test_tlb_counters () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  let tlb = Hw.Cpu.tlb cpu in
  Hw.Tlb.reset_counters tlb;
  for _ = 1 to 100 do
    ignore (Hw.Cpu.read_u8 cpu 4096)
  done;
  check_int "one miss" 1 (Hw.Tlb.misses tlb);
  check_int "99 hits" 99 (Hw.Tlb.hits tlb);
  check_bool "hit rate" true (abs_float (Hw.Tlb.hit_rate tlb -. 0.99) < 1e-9);
  Hw.Cpu.set_page_key cpu 1 0;
  check_bool "invalidation counted" true (Hw.Tlb.invalidations tlb > 0);
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_deny;
  check_bool "flush counted" true (Hw.Tlb.flushes tlb > 0)

let tlb_workload cpu =
  (* mixed reads/writes plus a resolved trap-and-map fault *)
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 9 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.set_handler cpu
    (Some
       (fun cpu f ->
         Hw.Cpu.set_page_key cpu (Hw.Addr.page_of f.Hw.Fault.addr) 0;
         true));
  for i = 0 to 4999 do
    Hw.Cpu.write_u32 cpu (4096 + (i mod 1000 * 4)) i;
    ignore (Hw.Cpu.read_u32 cpu (4096 + (i mod 1000 * 4)))
  done;
  (* faulting access, resolved by the handler (trap-and-map) *)
  Hw.Cpu.write_u8 cpu (4096 * 9) 1;
  for _ = 1 to 1000 do
    ignore (Hw.Cpu.read_u8 cpu (4096 * 9))
  done

let test_tlb_cycles_identical () =
  let run enabled =
    let cpu = mk_cpu () in
    Hw.Cpu.set_tlb_enabled cpu enabled;
    tlb_workload cpu;
    (Hw.Cost.cycles (Hw.Cpu.cost cpu), Hw.Cpu.fault_count cpu, Hw.Cpu.wrpkru_count cpu)
  in
  let on_cycles, on_faults, on_wrpkru = run true in
  let off_cycles, off_faults, off_wrpkru = run false in
  check_int "cycles identical" off_cycles on_cycles;
  check_int "faults identical" off_faults on_faults;
  check_int "wrpkru identical" off_wrpkru on_wrpkru;
  (* and the TLB was actually exercised in the enabled run *)
  let cpu = mk_cpu () in
  tlb_workload cpu;
  check_bool "tlb exercised" true (Hw.Tlb.hit_rate (Hw.Cpu.tlb cpu) > 0.9)

(* --- the reference machine ---------------------------------------------- *)

(* Random scripts of page-table, PKRU, core and access steps on a
   two-core, four-page machine, run four times: TLB on and off, traced
   and untraced. Each run must agree with [Ref_machine] at every step:
   the same verdict (a result, a [Fault.Violation] with its record, or
   [Invalid_argument]), the same host buffer, the same memory after
   every step that reaches memory, the same count of faults delivered; with the TLB on, hits plus misses over both
   cores equal the page lookups the reference walk makes, and with it
   off both stay 0. The four runs must charge the same cycles and count
   the same faults and [wrpkru]s at every step, and end on the same
   attribution rows. An access step names what the fault handler does
   with any fault it raises: refuse it, retag the page to a key (trap
   and map), or claim it resolved without changing anything. *)
type handling = Refuse | Lie | Retag of int

type ref_op =
  | Map of int * int * int  (* page, perm bits (1 r, 2 w, 4 x), key *)
  | Unmap of int
  | Set_perm of int * int
  | Set_key of int * int
  | Wrpkru of int
  | Scrub of int * int  (* core, key *)
  | Core of int
  | Load of width * int
  | Store of width * int * int
  | Read_bytes of int * int
  | Read_into of int * int * int * int  (* addr, host buffer size, pos, len *)
  | Write_bytes of int * string
  | Write_string of int * string
  | Write_sub of int * string * int * int
  | Store_run of int * string * int * int
  | Check of Hw.Fault.access * int * int  (* check_read, check_write, fetch *)
  | Memcpy of int * int * int  (* dst, src, len *)
  | Memset of int * int * char

type ref_script = {
  mpk : bool;
  exec_follows_access : bool;
  steps : (ref_op * handling) list;
}

let ref_pages = 4
let ref_size = ref_pages * Hw.Addr.page_size
let perm_of bits = { Hw.Page_table.r = bits land 1 <> 0; w = bits land 2 <> 0; x = bits land 4 <> 0 }

let pp_access = function Hw.Fault.Read -> "read" | Write -> "write" | Exec -> "exec"

let pp_ref_op = function
  | Map (p, bits, k) -> Printf.sprintf "map %d perm %d key %d" p bits k
  | Unmap p -> Printf.sprintf "unmap %d" p
  | Set_perm (p, bits) -> Printf.sprintf "set_perm %d %d" p bits
  | Set_key (p, k) -> Printf.sprintf "set_page_key %d %d" p k
  | Wrpkru v -> Printf.sprintf "wrpkru 0x%x" v
  | Scrub (c, k) -> Printf.sprintf "scrub core %d key %d" c k
  | Core c -> Printf.sprintf "core %d" c
  | Load (w, a) -> Printf.sprintf "read%d %d" (width_bits w) a
  | Store (w, a, v) -> Printf.sprintf "write%d %d %d" (width_bits w) a v
  | Read_bytes (a, len) -> Printf.sprintf "read_bytes %d %d" a len
  | Read_into (a, n, pos, len) -> Printf.sprintf "read_into %d buf%d pos %d len %d" a n pos len
  | Write_bytes (a, s) -> Printf.sprintf "write_bytes %d (%d)" a (String.length s)
  | Write_string (a, s) -> Printf.sprintf "write_string %d (%d)" a (String.length s)
  | Write_sub (a, s, pos, len) ->
      Printf.sprintf "write_sub %d (%d) pos %d len %d" a (String.length s) pos len
  | Store_run (a, s, pos, len) ->
      Printf.sprintf "store_run %d (%d) pos %d len %d" a (String.length s) pos len
  | Check (acc, a, len) -> Printf.sprintf "check %s %d %d" (pp_access acc) a len
  | Memcpy (dst, src, len) -> Printf.sprintf "memcpy dst %d src %d len %d" dst src len
  | Memset (a, len, c) -> Printf.sprintf "memset %d %d %C" a len c

let pp_handling = function
  | Refuse -> "refuse"
  | Lie -> "lie"
  | Retag k -> Printf.sprintf "retag %d" k

let pp_ref_script s =
  Printf.sprintf "mpk %b, exec_follows_access %b:\n%s" s.mpk s.exec_follows_access
    (String.concat "\n"
       (List.mapi
          (fun i (op, h) -> Printf.sprintf "  %d: %s [%s]" i (pp_ref_op op) (pp_handling h))
          s.steps))

let gen_ref_script =
  let open QCheck.Gen in
  let page = int_bound (ref_pages - 1) and core = int_bound 1 in
  (* keys 0-3 only, so retags and PKRU values often meet *)
  let key = int_bound 3 in
  let pkru =
    frequency
      [
        (2, return 0);
        (3, map Hw.Pkru.of_keys (list_size (int_bound 3) key));
        (2, map2 (fun ks k -> Hw.Pkru.allow_read_only (Hw.Pkru.of_keys ks) k) (list_size (int_bound 2) key) key);
        (1, int_bound 0xFF);
      ]
  in
  let perm = frequency [ (4, return 3); (1, int_bound 7) ] in
  (* mostly near a page boundary or inside memory; sometimes at the end
     of memory, near [max_int] or near [min_int] *)
  let addr =
    frequency
      [
        (8, map2 (fun p d -> (p * Hw.Addr.page_size) + d) page (int_range (-10) 10));
        (8, int_bound (ref_size - 1));
        (1, map (fun d -> ref_size + d) (int_range (-24) 24));
        (1, map (fun d -> max_int - d) (int_bound 16));
        (1, map (fun d -> min_int + d) (int_bound 16));
      ]
  in
  let len =
    frequency
      [
        (12, int_bound 24);
        (2, int_range 4090 4200);
        (1, map (fun d -> max_int - d) (int_bound 16));
        (1, int_range (-2) (-1));
      ]
  in
  let text = string_size ~gen:printable (frequency [ (8, int_bound 24); (1, int_range 4090 4200) ]) in
  (* a host range of an [n]-byte buffer: mostly inside it *)
  let host n =
    frequency
      [
        (8, int_bound n >>= fun pos -> map (fun len -> (pos, len)) (int_bound (n - pos)));
        (1, pair (int_range (-2) (n + 2)) (int_range (-2) (n + 2)));
        (1, map (fun d -> (1, max_int - d)) (int_bound 4));
      ]
  in
  let with_host f = text >>= fun s -> map (fun (a, (pos, len)) -> f a s pos len) (pair addr (host (String.length s))) in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let op =
    frequency
      [
        (3, map3 (fun p b k -> Map (p, b, k)) page perm key);
        (1, map (fun p -> Unmap p) page);
        (1, map2 (fun p b -> Set_perm (p, b)) page perm);
        (2, map2 (fun p k -> Set_key (p, k)) page key);
        (2, map (fun v -> Wrpkru v) pkru);
        (1, map2 (fun c k -> Scrub (c, k)) core key);
        (2, map (fun c -> Core c) core);
        (4, map2 (fun w a -> Load (w, a)) width addr);
        (4, map3 (fun w a v -> Store (w, a, v)) width addr int);
        (1, map2 (fun a l -> Read_bytes (a, l)) addr len);
        (1, int_bound 40 >>= fun n -> map (fun (a, (pos, l)) -> Read_into (a, n, pos, l)) (pair addr (host n)));
        (1, map2 (fun a s -> Write_bytes (a, s)) addr text);
        (1, map2 (fun a s -> Write_string (a, s)) addr text);
        (1, with_host (fun a s pos l -> Write_sub (a, s, pos, l)));
        (2, with_host (fun a s pos l -> Store_run (a, s, pos, l)));
        (2, map3 (fun acc a l -> Check (acc, a, l)) (oneofl Hw.Fault.[ Read; Write; Exec ]) addr len);
        (2, map3 (fun d s l -> Memcpy (d, s, l)) addr addr len);
        (1, map3 (fun a l c -> Memset (a, l, c)) addr len printable);
      ]
  in
  let handling = frequency [ (2, return Refuse); (1, return Lie); (3, map (fun k -> Retag k) key) ] in
  (* every page mapped (or not) and both cores' PKRU set first *)
  let setup =
    flatten_l
      (List.init ref_pages (fun p ->
           frequency
             [ (9, map2 (fun b k -> Map (p, b, k)) perm key); (1, return (Unmap p)) ]))
  in
  map3
    (fun (mpk, exec_follows_access) (setup, (v1, v0)) steps ->
      let setup = setup @ [ Core 1; Wrpkru v1; Core 0; Wrpkru v0 ] in
      { mpk; exec_follows_access; steps = List.map (fun op -> (op, Refuse)) setup @ steps })
    (pair (frequencyl [ (7, true); (1, false) ]) bool)
    (pair setup (pair pkru pkru))
    (list_size (int_range 1 50) (pair op handling))

(* What a step gave back: a value (as text), a fault, or a refused
   argument. *)
type verdict = Done of string | Faulted of Hw.Fault.t | Invalid

let verdict f =
  match f () with
  | v -> Done v
  | exception Hw.Fault.Violation (fault, _) -> Faulted fault
  | exception Invalid_argument _ -> Invalid

let pp_verdict = function
  | Done v -> if String.length v > 40 then Printf.sprintf "done (%d bytes)" (String.length v) else "done " ^ v
  | Faulted f -> Format.asprintf "fault %a" Hw.Fault.pp f
  | Invalid -> "Invalid_argument"

let width_len = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let le_bytes w v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.sub_string b 0 (width_len w)

let le_value w s =
  match w with
  | W64 -> Int64.to_string (String.get_int64_le s 0)
  | _ -> string_of_int (Int64.to_int (String.get_int64_le (s ^ String.make 8 '\000') 0))

let host_buffer n = Bytes.init n (fun i -> Char.chr (97 + (i mod 26)))

let ref_step m host = function
  | Map (p, bits, key) -> Ref_machine.map_page m p (perm_of bits) ~key; ""
  | Unmap p -> Ref_machine.unmap_page m p; ""
  | Set_perm (p, bits) -> Ref_machine.set_perm m p (perm_of bits); ""
  | Set_key (p, k) -> Ref_machine.set_page_key m p k; ""
  | Wrpkru v -> Ref_machine.wrpkru m v; ""
  | Scrub (c, key) -> Ref_machine.scrub_pkru_key m c ~key; ""
  | Core c -> Ref_machine.set_core m c; ""
  | Load (w, a) -> le_value w (Ref_machine.read m a (width_len w))
  | Store (w, a, v) -> Ref_machine.write m a (le_bytes w v); ""
  | Read_bytes (a, len) -> Ref_machine.read m a len
  | Read_into (a, _, pos, len) -> Ref_machine.read_into m a host ~pos ~len; ""
  | Write_bytes (a, s) | Write_string (a, s) -> Ref_machine.write m a s; ""
  | Write_sub (a, s, pos, len) -> Ref_machine.write_sub m a (Bytes.of_string s) ~pos ~len; ""
  | Store_run (a, s, pos, len) -> Ref_machine.store_run m a (Bytes.of_string s) ~pos ~len; ""
  | Check (acc, a, len) -> Ref_machine.check m a len acc; ""
  | Memcpy (dst, src, len) -> Ref_machine.memcpy m ~dst ~src ~len; ""
  | Memset (a, len, c) -> Ref_machine.memset m a len c; ""

let cpu_step cpu host = function
  | Map (p, bits, key) -> Hw.Cpu.map_page cpu p (perm_of bits) ~key; ""
  | Unmap p -> Hw.Cpu.unmap_page cpu p; ""
  | Set_perm (p, bits) -> Hw.Page_table.set_perm (Hw.Cpu.page_table cpu) p (perm_of bits); ""
  | Set_key (p, k) -> Hw.Cpu.set_page_key cpu p k; ""
  | Wrpkru v -> Hw.Cpu.wrpkru cpu v; ""
  | Scrub (c, key) -> Hw.Cpu.scrub_pkru_key cpu c ~key; ""
  | Core c -> Hw.Cpu.set_core cpu c; ""
  | Load (W8, a) -> string_of_int (Hw.Cpu.read_u8 cpu a)
  | Load (W16, a) -> string_of_int (Hw.Cpu.read_u16 cpu a)
  | Load (W32, a) -> string_of_int (Hw.Cpu.read_u32 cpu a)
  | Load (W64, a) -> Int64.to_string (Hw.Cpu.read_i64 cpu a)
  | Store (W8, a, v) -> Hw.Cpu.write_u8 cpu a v; ""
  | Store (W16, a, v) -> Hw.Cpu.write_u16 cpu a v; ""
  | Store (W32, a, v) -> Hw.Cpu.write_u32 cpu a v; ""
  | Store (W64, a, v) -> Hw.Cpu.write_i64 cpu a (Int64.of_int v); ""
  | Read_bytes (a, len) -> Bytes.to_string (Hw.Cpu.read_bytes cpu a len)
  | Read_into (a, _, pos, len) -> Hw.Cpu.read_into cpu a host ~pos ~len; ""
  | Write_bytes (a, s) -> Hw.Cpu.write_bytes cpu a (Bytes.of_string s); ""
  | Write_string (a, s) -> Hw.Cpu.write_string cpu a s; ""
  | Write_sub (a, s, pos, len) -> Hw.Cpu.write_sub cpu a (Bytes.of_string s) ~pos ~len; ""
  | Store_run (a, s, pos, len) -> Hw.Cpu.store_run cpu a (Bytes.of_string s) ~pos ~len; ""
  | Check (Read, a, len) -> Hw.Cpu.check_read cpu a len; ""
  | Check (Write, a, len) -> Hw.Cpu.check_write cpu a len; ""
  | Check (Exec, a, len) -> Hw.Cpu.fetch cpu a len; ""
  | Memcpy (dst, src, len) -> Hw.Cpu.memcpy cpu ~dst ~src ~len; ""
  | Memset (a, len, c) -> Hw.Cpu.memset cpu a len c; ""

(* The fault handler both machines run: [retag page key] is the
   machine's own [set_page_key]. *)
let handle handling ~retag (f : Hw.Fault.t) =
  match !handling with
  | Refuse -> false
  | Lie -> true
  | Retag k ->
      retag (Hw.Addr.page_of f.addr) k;
      true

let machine_of script ~handling ~tlb ~traced =
  let cpu = Hw.Cpu.create ~mem_bytes:ref_size ~ncores:2 () in
  Hw.Cpu.set_mpk_enabled cpu script.mpk;
  Hw.Cpu.set_exec_follows_access cpu script.exec_follows_access;
  Hw.Cpu.set_tlb_enabled cpu tlb;
  Telemetry.Bus.set_tracing (Hw.Cpu.bus cpu) traced;
  Hw.Cpu.set_handler cpu (Some (fun cpu -> handle handling ~retag:(Hw.Cpu.set_page_key cpu)));
  (cpu, tlb, traced)

(* Page-table, PKRU and core steps reach no byte of memory. *)
let touches_memory = function
  | Map _ | Unmap _ | Set_perm _ | Set_key _ | Wrpkru _ | Scrub _ | Core _ -> false
  | _ -> true

let fst3 (cpu, _, _) = cpu

let tlb_lookups cpu =
  List.fold_left (fun n tlb -> n + Hw.Tlb.hits tlb + Hw.Tlb.misses tlb) 0 (Hw.Cpu.tlbs cpu)

let run_ref_script script =
  let handling = ref Refuse in
  let model =
    Ref_machine.create ~npages:ref_pages ~ncores:2 ~mpk:script.mpk
      ~exec_follows_access:script.exec_follows_access
  in
  model.handler <- (fun m -> handle handling ~retag:(Ref_machine.set_page_key m));
  let machines =
    List.map
      (fun (tlb, traced) -> machine_of script ~handling ~tlb ~traced)
      [ (true, false); (false, false); (true, true); (false, true) ]
  in
  let mem = Bytes.create ref_size in
  let fail i op fmt =
    Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "step %d (%s): %s" i (pp_ref_op op) s) fmt
  in
  let counts cpu =
    (Hw.Cost.cycles (Hw.Cpu.cost cpu), Hw.Cpu.fault_count cpu, Hw.Cpu.wrpkru_count cpu)
  in
  List.iteri
    (fun i (op, h) ->
      handling := h;
      let host_size = match op with Read_into (_, n, _, _) -> n | _ -> 0 in
      let ref_host = host_buffer host_size in
      let expected = verdict (fun () -> ref_step model ref_host op) in
      List.iter
        (fun (cpu, tlb, traced) ->
          let host = host_buffer host_size in
          let got = verdict (fun () -> cpu_step cpu host op) in
          let where = Printf.sprintf "tlb %b traced %b" tlb traced in
          if got <> expected then
            fail i op "%s: %s, reference %s" where (pp_verdict got) (pp_verdict expected);
          if not (Bytes.equal host ref_host) then fail i op "%s: host buffer differs" where;
          if touches_memory op then begin
            Hw.Phys_mem.read_into (Hw.Cpu.mem cpu) 0 mem ~pos:0 ~len:ref_size;
            if not (Bytes.equal mem model.mem) then fail i op "%s: memory differs" where
          end;
          if Hw.Cpu.fault_count cpu <> model.faults then
            fail i op "%s: %d faults, reference %d" where (Hw.Cpu.fault_count cpu) model.faults;
          let lookups = tlb_lookups cpu and probes = if tlb then model.probes else 0 in
          if lookups <> probes then
            fail i op "%s: %d TLB hits + misses, reference walk %d lookups" where lookups probes)
        machines;
      let cycles0, faults0, wrpkru0 = counts (fst3 (List.hd machines)) in
      List.iter
        (fun (cpu, tlb, traced) ->
          let cycles, faults, wrpkru = counts cpu in
          if (cycles, faults, wrpkru) <> (cycles0, faults0, wrpkru0) then
            fail i op "tlb %b traced %b: cycles/faults/wrpkru %d/%d/%d, TLB-on untraced run %d/%d/%d"
              tlb traced cycles faults wrpkru cycles0 faults0 wrpkru0)
        machines)
    script.steps;
  let rows m = Telemetry.Attrib.rows (Hw.Cpu.cost (fst3 m)).Hw.Cost.attrib in
  List.for_all (fun m -> rows m = rows (List.hd machines)) machines
  || QCheck.Test.fail_report "attribution rows differ between runs"

let prop_ref_machine =
  QCheck.Test.make ~count:1000 ~long_factor:5
    ~name:"cpu: scripts agree with the reference machine, TLB on/off x traced/untraced"
    (QCheck.make ~print:pp_ref_script gen_ref_script)
    run_ref_script

let prop_cpu_write_read_roundtrip =
  QCheck.Test.make ~name:"cpu: bytes written are read back"
    QCheck.(pair (int_bound 1000) (string_of_size (QCheck.Gen.int_bound 200)))
    (fun (addr, s) ->
      let cpu = mk_cpu () in
      Hw.Cpu.write_string cpu addr s;
      Bytes.to_string (Hw.Cpu.read_bytes cpu addr (String.length s)) = s)

let instr_gen =
  QCheck.Gen.(
    oneof
      [
        return Hw.Instr.Nop;
        return Hw.Instr.Ret;
        return Hw.Instr.Halt;
        map (fun d -> Hw.Instr.Jmp d) (int_range (-100000) 100000);
        map (fun d -> Hw.Instr.Call d) (int_range (-100000) 100000);
        map2 (fun r i -> Hw.Instr.Mov_imm (r, i)) (int_bound 255) (int_range (-1000000) 1000000);
        map2 (fun r a -> Hw.Instr.Load (r, a)) (int_bound 255) (int_bound 1000000);
        map2 (fun r a -> Hw.Instr.Store (r, a)) (int_bound 255) (int_bound 1000000);
        map2 (fun a b -> Hw.Instr.Add (a, b)) (int_bound 255) (int_bound 255);
        return Hw.Instr.Wrpkru;
        return Hw.Instr.Rdpkru;
        return Hw.Instr.Syscall;
      ])

let prop_instr_assemble_decode =
  QCheck.Test.make ~name:"instr: assemble/decode roundtrip for whole programs"
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) instr_gen))
    (fun instrs ->
      let code = Hw.Instr.assemble instrs in
      let rec decode_all off acc =
        if off >= Bytes.length code then Some (List.rev acc)
        else
          match Hw.Instr.decode code off with
          | Some (i, next) -> decode_all next (i :: acc)
          | None -> None
      in
      decode_all 0 [] = Some instrs)

let prop_scan_iff_privileged =
  (* clean instruction streams (no Wrpkru/Syscall and no 0x0F bytes in
     operands) never trip the scanner *)
  QCheck.Test.make ~name:"scan: safe opcodes with safe operands never flagged"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 60)
           (oneof
              [
                return Hw.Instr.Nop;
                return Hw.Instr.Ret;
                map2
                  (fun r i -> Hw.Instr.Mov_imm (r land 0x0E, i land 0x0E0E0E))
                  (int_bound 255) (int_bound 0xFFFFFF);
                map2
                  (fun a b -> Hw.Instr.Add (a land 0x0E, b land 0x0E))
                  (int_bound 255) (int_bound 255);
              ])))
    (fun instrs -> Hw.Instr.scan_forbidden (Hw.Instr.assemble instrs) = [])

(* Random bytes, mostly drawn from the forbidden sequences' own bytes
   so that whole, adjacent, overlapping ([0F 0F 05], [0F 01 0F 05]) and
   end-truncated sequences are common. *)
let gen_scan_bytes =
  QCheck.Gen.(
    map Bytes.of_string
      (string_size (int_bound 64)
         ~gen:
           (frequency
              [
                (3, return '\x0F');
                (2, return '\x01');
                (2, return '\xEF');
                (2, return '\x05');
                (1, char);
              ])))

let prop_scan_agrees_with_oracle =
  QCheck.Test.make ~count:2000 ~name:"scan: agrees with the per-offset oracle"
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen_scan_bytes)
    (fun code -> Hw.Instr.scan_forbidden code = Oracle.scan_forbidden code)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_addr_roundtrip; prop_pkru_deny_allow_inverse; prop_cpu_write_read_roundtrip;
    prop_instr_assemble_decode; prop_scan_iff_privileged; prop_phys_mem_matches_model;
    prop_untouched_pages_read_zero; prop_scan_agrees_with_oracle; prop_ref_machine ]

let () =
  Alcotest.run "hw"
    [
      ( "addr",
        [
          Alcotest.test_case "basics" `Quick test_addr_basics;
        ] );
      ( "pkru",
        [
          Alcotest.test_case "basics" `Quick test_pkru_basics;
          Alcotest.test_case "all_allow" `Quick test_pkru_all_allow;
          Alcotest.test_case "of_keys" `Quick test_pkru_of_keys;
          Alcotest.test_case "bad key" `Quick test_pkru_bad_key;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "entry fields" `Quick test_page_table;
          Alcotest.test_case "allows" `Quick test_page_table_allows;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "scalars" `Quick test_phys_mem_scalars;
          Alcotest.test_case "blit overlap" `Quick test_phys_mem_blit_overlap;
          Alcotest.test_case "bounds" `Quick test_phys_mem_bounds;
        ] );
      ( "instr",
        [
          Alcotest.test_case "roundtrip" `Quick test_instr_roundtrip;
          Alcotest.test_case "scan wrpkru" `Quick test_scan_finds_wrpkru;
          Alcotest.test_case "scan syscall" `Quick test_scan_finds_syscall;
          Alcotest.test_case "scan misaligned" `Quick test_scan_misaligned_sequence;
          Alcotest.test_case "scan clean" `Quick test_scan_clean_code;
          Alcotest.test_case "synth safe" `Quick test_synth_code_safe;
          Alcotest.test_case "synth deterministic" `Quick test_synth_code_deterministic;
          Alcotest.test_case "synth pinned" `Quick test_synth_code_pinned;
          Alcotest.test_case "scan edge cases" `Quick test_scan_edge_cases;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_cpu_rw_roundtrip;
          Alcotest.test_case "not present" `Quick test_cpu_not_present_fault;
          Alcotest.test_case "page perm" `Quick test_cpu_page_perm_fault;
          Alcotest.test_case "mpk off ignores keys" `Quick test_cpu_mpk_disabled_ignores_keys;
          Alcotest.test_case "mpk key fault" `Quick test_cpu_mpk_key_fault;
          Alcotest.test_case "write disable" `Quick test_cpu_mpk_write_disable;
          Alcotest.test_case "handler resolves" `Quick test_cpu_handler_resolves;
          Alcotest.test_case "handler lies" `Quick test_cpu_handler_lies;
          Alcotest.test_case "exec follows access" `Quick test_cpu_exec_follows_access;
          Alcotest.test_case "blit checks both" `Quick test_cpu_blit_checks_both_sides;
          Alcotest.test_case "range crossing" `Quick test_cpu_range_crossing_pages;
          Alcotest.test_case "costs" `Quick test_cpu_costs;
          Alcotest.test_case "out-of-memory ranges" `Quick test_cpu_out_of_memory_ranges;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "set_key invalidates" `Quick test_tlb_set_key_invalidates;
          Alcotest.test_case "window close observed" `Quick test_tlb_window_close_observed;
          Alcotest.test_case "wrpkru observed" `Quick test_tlb_wrpkru_observed;
          Alcotest.test_case "counters" `Quick test_tlb_counters;
          Alcotest.test_case "cycles identical on/off" `Quick test_tlb_cycles_identical;
        ] );
      ("properties", qsuite);
    ]
