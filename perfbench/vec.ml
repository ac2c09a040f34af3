(* Growable int sample buffer, plus the order statistics the benchmark
   reports. Percentiles use the nearest-rank rule on the sorted samples. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 4096 0; n = 0 }
let length v = v.n
let get v i = v.a.(i)

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(* Samples [lo, hi), sorted. *)
let sorted_range v lo hi =
  let s = Array.sub v.a lo (hi - lo) in
  Array.sort compare s;
  s

let sorted ?(len = max_int) v = sorted_range v 0 (min len v.n)

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile ?len v p = percentile_sorted (sorted ?len v) p

(* Quantile of a small float list, interpolating between order
   statistics; [q = 0.5] is the median. *)
let quantile_float l q =
  let s = Array.of_list (List.sort compare l) in
  let n = Array.length s in
  if n = 0 then 0.
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median_float l = quantile_float l 0.5
