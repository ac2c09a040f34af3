(* Isolation demo: what CubicleOS stops a malicious component doing.

   Five attack scenarios from the paper's threat model (§2.3), each
   attempted and blocked:
     1. a compromised RAMFS trying to read TLS keys in another cubicle
        (the CVE-2018-5410-style scenario from the introduction);
     2. loading a component whose binary hides a wrpkru sequence inside
        an immediate (ERIM-style misaligned scan);
     3. loading a component that tries to issue raw system calls;
     4. jumping into a trampoline thunk body, bypassing CFI;
     5. a component trying to manage (open) another cubicle's window.

   Run with: dune exec examples/isolation_demo.exe
   It exits 1 if any attack is not blocked. *)

open Cubicle

let blocked = ref 0
let unblocked = ref 0

let attempt name f ~blocked_by =
  match f () with
  | _ ->
      incr unblocked;
      Printf.printf "  !! %-52s NOT BLOCKED\n" name
  | exception Hw.Fault.Violation _ ->
      incr blocked;
      Printf.printf "  ok %-52s blocked by %s\n" name blocked_by
  | exception Types.Denied (Forbidden_code { hits; _ }) ->
      incr blocked;
      Printf.printf "  ok %-52s blocked by %s (%d forbidden sequences)\n" name blocked_by
        (List.length hits)
  | exception Types.Denied _ ->
      incr blocked;
      Printf.printf "  ok %-52s blocked by %s\n" name blocked_by

let () =
  print_endline "== CubicleOS isolation demo: attacks and their fate ==";
  let app = Builder.component ~heap_pages:32 ~stack_pages:2 "APP" in
  let sys = Libos.Boot.fs_stack ~protection:Types.Full ~extra:[ (app, Types.Isolated) ] () in
  let mon = sys.Libos.Boot.mon in
  let app_ctx = Libos.Boot.app_ctx sys "APP" in

  (* The application stores a "TLS key" in its own heap. *)
  let tls_key = Api.malloc_page_aligned app_ctx 32 in
  Api.write_string app_ctx tls_key "-----SECRET TLS PRIVATE KEY-----";

  (* 1. A vulnerable/compromised file system tries to exfiltrate it.
        We model the compromise by registering a rogue export in the
        RAMFS cubicle that dereferences an arbitrary pointer. *)
  let ramfs = Monitor.lookup_cubicle mon "RAMFS" in
  Monitor.register_exports mon ramfs
    [
      {
        Monitor.sym = "ramfs_backdoor";
        fn = (fun ctx args -> Api.read_u8 ctx args.(0));
        stack_bytes = 0;
      };
    ];
  attempt "compromised RAMFS reads the app's TLS key"
    (fun () ->
      Monitor.call mon ~caller:(Api.self app_ctx) (Monitor.import "ramfs_backdoor")
        [| tls_key |])
    ~blocked_by:"spatial isolation (MPK tags)";

  (* 2. Hidden wrpkru in an immediate operand. *)
  attempt "loading a binary with wrpkru hidden in an immediate"
    (fun () ->
      Loader.load mon
        {
          Loader.img_name = "EVIL1";
          code = Hw.Instr.assemble [ Nop; Mov_imm (1, 0x00EF010F); Ret ];
          rodata = Bytes.empty;
          data = Bytes.empty;
          signed = false;
        }
        ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[])
    ~blocked_by:"loader binary scan";

  (* 3. Raw system calls. *)
  attempt "loading a binary that issues raw syscalls"
    (fun () ->
      Loader.load mon
        {
          Loader.img_name = "EVIL2";
          code = Hw.Instr.assemble [ Mov_imm (0, 60); Syscall; Ret ];
          rodata = Bytes.empty;
          data = Bytes.empty;
          signed = false;
        }
        ~kind:Types.Isolated ~heap_pages:1 ~stack_pages:1 ~exports:[])
    ~blocked_by:"loader binary scan";

  (* 4. CFI: fetch a trampoline thunk directly instead of entering via
        the guard page. *)
  let thunk = Trampoline.thunk_addr sys.Libos.Boot.built.Builder.trampolines "vfs_open" in
  attempt "jumping into a trampoline thunk body (CFI bypass)"
    (fun () ->
      Trampoline.rogue_fetch mon ~as_cubicle:(Api.self app_ctx) ~addr:thunk;
      0)
    ~blocked_by:"tag-wide no-execute (modified MPK)";

  (* 5. Window ownership: the app tries to window out VFSCORE's memory. *)
  attempt "windowing out another cubicle's memory"
    (fun () ->
      let wid = Api.window_init app_ctx ~klass:Mm.Page_meta.Heap in
      let vfs_heap_page =
        (* any page owned by VFSCORE *)
        let rec find p =
          if Monitor.page_owner mon p = Some (Monitor.lookup_cubicle mon "VFSCORE") then p
          else find (p + 1)
        in
        Hw.Addr.base_of_page (find 0)
      in
      Api.window_add app_ctx wid ~ptr:vfs_heap_page ~size:64;
      0)
    ~blocked_by:"window ownership check";

  (* And the legitimate path still works. *)
  let fio = Libos.Fileio.make app_ctx in
  Libos.Fileio.write_file fio "/legit.txt" "windows make sharing intentional";
  Printf.printf "\nlegitimate file I/O still works: %S\n"
    (Libos.Fileio.read_file fio "/legit.txt");
  Printf.printf "attacks blocked: %d of %d\n" !blocked (!blocked + !unblocked);
  if !unblocked > 0 then exit 1
