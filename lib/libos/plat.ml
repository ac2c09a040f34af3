open Cubicle

type state = {
  console : Buffer.t;
  mutable rand_state : int;
  mutable halted : bool;
}

let putc_fn state _ctx (args : int array) =
  let c = Char.chr (args.(0) land 0xFF) in
  Buffer.add_char state.console c;
  0

let rand_fn state _ctx _ =
  (* xorshift: deterministic so benchmark runs are reproducible *)
  let x = state.rand_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state.rand_state <- x land max_int;
  state.rand_state land 0x3FFFFFFF

let halt_fn state _ctx _ =
  state.halted <- true;
  0

let make () =
  let state = { console = Buffer.create 256; rand_state = 0x2545F491; halted = false } in
  let comp =
    Builder.component "PLAT" ~code_ops:512 ~heap_pages:2 ~stack_pages:2
      ~exports:
        [
          Builder.export "plat_putc" (putc_fn state) [];
          Builder.export "plat_rand" (rand_fn state) [];
          Builder.export "plat_halt" (halt_fn state) [];
        ]
  in
  (state, comp)

let console_contents state = Buffer.contents state.console
