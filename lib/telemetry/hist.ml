(* Log-bucketed histogram of non-negative cycle counts. Values below
   [sub] are recorded exactly; above that each power of two is split
   into [sub] sub-buckets (HdrHistogram-style), bounding the relative
   quantisation error of any reported percentile to 1/sub ~ 6%.
   Recording is allocation-free: one array increment. *)

let sub_bits = 4
let sub = 1 lsl sub_bits

(* Index layout: bucket i < sub holds exactly the value i; from there
   each octave [2^b, 2^(b+1)) for b >= sub_bits contributes [sub]
   buckets. 63-bit OCaml ints need at most (63 - sub_bits) octaves. *)
let nbuckets = sub * (63 - sub_bits + 1)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () = { counts = Array.make nbuckets 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

(* floor(log2 v) for v > 0 *)
let log2_floor v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index v =
  if v < sub then v
  else begin
    let b = log2_floor v in
    let shift = b - sub_bits in
    ((shift + 1) * sub) + ((v lsr shift) - sub)
  end

(* Smallest value that lands in bucket [i]: the inverse of {!index} on
   bucket lower bounds. *)
let bucket_low i =
  if i < sub then i
  else begin
    let shift = (i / sub) - 1 in
    let off = i mod sub in
    (sub + off) lsl shift
  end

let add t v =
  let v = max 0 v in
  t.counts.(index v) <- t.counts.(index v) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let sum t = t.sum
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

let percentile t q =
  if t.n = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
    (* the top-ranked sample is the maximum, which we track exactly *)
    if rank >= t.n then t.max_v
    else begin
    let i = ref 0 in
    let cum = ref 0 in
    while !cum < rank && !i < nbuckets do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    (* [!i - 1] is the bucket holding the ranked sample; report its lower
       bound, clamped into the observed range so single samples and
       extrema come back exactly. *)
    let v = bucket_low (!i - 1) in
    min (max v t.min_v) t.max_v
    end
  end

let iter_buckets f t =
  Array.iteri (fun i c -> if c > 0 then f ~low:(bucket_low i) ~count:c) t.counts
