(* Software TLB: a direct-mapped per-page cache of "access kind ->
   allowed" decisions, keyed on a global permission generation.

   Each entry packs (generation lsl 3) lor allow_bits, where the allow
   bits are 1 = Read, 2 = Write, 4 = Exec. An entry is live only while
   its generation equals the TLB's current generation, so a global
   flush is a single integer increment; per-page invalidation zeroes
   the entry (generation 0 is never current). Only this module reads
   or writes an entry.

   Only {e allow} decisions are cached — denials always take the slow
   path so trap-and-map fault delivery is unchanged. The TLB saves host
   wall-clock only: no simulated cycles are charged or skipped here. *)

type t = {
  mutable gen : int;
  entries : int array;
  mutable enabled : bool;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable invalidations : int;
}

let[@inline] access_bit (a : Fault.access) =
  match a with Fault.Read -> 1 | Fault.Write -> 2 | Fault.Exec -> 4

let create npages =
  {
    gen = 1;
    entries = Array.make npages 0;
    enabled = true;
    hits = 0;
    misses = 0;
    flushes = 0;
    invalidations = 0;
  }

let enabled t = t.enabled

let flush t =
  t.gen <- t.gen + 1;
  t.flushes <- t.flushes + 1

let set_enabled t b =
  (* Flush on re-enable so decisions cached before a disabled interval
     can never be trusted (mutation hooks still fire while disabled,
     but this keeps enable/disable trivially safe). *)
  if b && not t.enabled then flush t;
  t.enabled <- b

let invalidate_page t p =
  if p >= 0 && p < Array.length t.entries then begin
    t.entries.(p) <- 0;
    t.invalidations <- t.invalidations + 1
  end

(* One array load, one generation compare, one bit test; inlined into
   every checked access. [p] comes from [Addr.page_of], a logical
   shift, so it is never negative. *)
let[@inline] probe t p access ~hits =
  t.enabled
  && p < Array.length t.entries
  && (let e = Array.unsafe_get t.entries p in
      e lsr 3 = t.gen && e land access_bit access <> 0)
  && (t.hits <- t.hits + hits;
      true)

let[@inline] record_miss t = if t.enabled then t.misses <- t.misses + 1

let fill t p access =
  if t.enabled then begin
    let e = t.entries.(p) in
    let live_bits = if e lsr 3 = t.gen then e land 0b111 else 0 in
    t.entries.(p) <- (t.gen lsl 3) lor live_bits lor access_bit access
  end

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
let invalidations t = t.invalidations

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.flushes <- 0;
  t.invalidations <- 0
