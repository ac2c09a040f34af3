open Cubicle

let palloc_fn (ctx : Monitor.ctx) (args : int array) =
  Monitor.alloc_pages ctx.mon ctx.caller args.(0) ~kind:Mm.Page_meta.Heap

let pfree_fn (ctx : Monitor.ctx) (args : int array) =
  Monitor.free_pages ctx.mon ctx.caller args.(0);
  0

let component () =
  (* the page arguments are monitor-mediated, never dereferenced by
     ALLOC itself: no window obligations *)
  Builder.component "ALLOC" ~code_ops:384 ~heap_pages:2 ~stack_pages:2
    ~exports:
      [ Builder.export "uk_palloc" palloc_fn []; Builder.export "uk_pfree" pfree_fn [] ]
