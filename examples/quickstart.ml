(* Quickstart: the paper's Figure 1c in running code.

   Two isolated components, FOO and BAR. FOO owns a ten-byte array and
   wants BAR's [bar(array, a)] to write into it. Without a window the
   access faults; with a window it proceeds zero-copy; after the window
   closes and FOO reclaims the page, BAR is locked out again.

   Run with: dune exec examples/quickstart.exe *)

open Cubicle

let () =
  print_endline "== CubicleOS quickstart: windows between FOO and BAR ==";

  (* 1. Boot a monitor with full protection and create two cubicles. *)
  let mon = Monitor.create ~protection:Types.Full () in
  let foo = Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in
  let bar = Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8 ~stack_pages:2 in

  (* 2. BAR exports bar(ptr, a): ptr[a] <- 0xAA, through a trampoline. *)
  Monitor.register_exports mon bar
    [
      {
        Monitor.sym = "bar";
        fn = (fun ctx args -> Api.write_u8 ctx (args.(0) + args.(1)) 0xAA; 0);
        stack_bytes = 0;
      };
    ];
  (* FOO's call site holds a handle on "bar", resolved at its first call. *)
  let bar_fn = Monitor.import "bar" in

  (* 3. FOO allocates its array (page-aligned, so nothing else shares
        the window's page). *)
  let ctx = Monitor.ctx_for mon foo in
  let array = Api.malloc_page_aligned ctx 10 in
  Api.write_string ctx array "0123456789";

  (* 4. Without a window, the cross-cubicle write faults. *)
  (try
     ignore (Monitor.call mon ~caller:foo bar_fn [| array; 5 |]);
     print_endline "!! unexpected: access was allowed"
   with Hw.Fault.Violation (f, _) ->
     Format.printf "without a window: %a -> protection fault (as expected)@." Hw.Fault.pp f);

  (* 5. Open a window for BAR (Figure 1c), call again: zero-copy write. *)
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:array ~size:10;
  Api.window_open ctx wid bar;
  ignore (Monitor.call mon ~caller:foo bar_fn [| array; 5 |]);
  Api.window_close ctx wid bar;
  Monitor.run_as mon foo (fun () ->
      Printf.printf "with a window:    array[5] = 0x%02X (written by BAR, zero-copy)\n"
        (Api.read_u8 ctx (array + 5)));

  (* 6. Causal consistency: after FOO touches the page back, the closed
        window really is closed. *)
  (try ignore (Monitor.call mon ~caller:foo bar_fn [| array; 6 |]) with
  | Hw.Fault.Violation _ -> print_endline "after close:      BAR is locked out again");

  let stats = Monitor.stats mon in
  Printf.printf
    "stats: %d cross-cubicle calls, %d trap-and-map faults, %d page retags\n"
    (Stats.total_calls stats) (Stats.faults stats) (Stats.retags stats)
