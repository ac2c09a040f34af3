(* Host monotonic clock: the benchmark's second clock, next to the
   simulator's cycle counter. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
