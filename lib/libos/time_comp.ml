open Cubicle

let now_ns_fn (ctx : Monitor.ctx) _ =
  let cycles = Hw.Cost.cycles (Monitor.cost ctx.mon) in
  (* 2.2 GHz: 10 ns per 22 cycles. *)
  cycles * 10 / 22

let now_cycles_fn (ctx : Monitor.ctx) _ = Hw.Cost.cycles (Monitor.cost ctx.mon)

let component () =
  Builder.component "TIME" ~code_ops:128 ~heap_pages:1 ~stack_pages:1
    ~exports:
      [
        Builder.export "uk_time_ns" now_ns_fn [];
        Builder.export "uk_time_cycles" now_cycles_fn [];
      ]
