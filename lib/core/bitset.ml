(* One flat word array, 63 bits per word: the single-int representation
   capped the system at 62 cubicles, which key virtualisation blows
   straight past (hundreds of tenant cubicles over 15 physical tags).
   Still O(1) add/remove/mem; the word count is fixed at table-creation
   time, as the paper fixes the bitmask size at deployment time. *)

let bits_per_word = 63

type t = { bits : int array; universe : int }

let empty n =
  if n < 0 then invalid_arg "Bitset.empty: negative universe";
  { bits = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; universe = n }

let check t i =
  if i < 0 || i >= t.universe then
    invalid_arg (Printf.sprintf "Bitset: element %d outside universe %d" i t.universe)

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.bits.(w) <- t.bits.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.bits.(w) <- t.bits.(w) land lnot (1 lsl (i mod bits_per_word))

let mem t i =
  check t i;
  t.bits.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let clear t = Array.fill t.bits 0 (Array.length t.bits) 0
let is_empty t = Array.for_all (fun w -> w = 0) t.bits

let cardinal t =
  let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
  Array.fold_left (fun acc w -> count w acc) 0 t.bits

(* The position of the lowest set bit of a non-zero word. *)
let rec lowest_bit b i = if b land 1 <> 0 then i else lowest_bit (b lsr 1) (i + 1)

(* The first member at or above word [w], whose unscanned bits are [b];
   empty words cost one test each. *)
let rec next_in bits w b =
  if b <> 0 then (w * bits_per_word) + lowest_bit b 0
  else if w + 1 < Array.length bits then
    next_in bits (w + 1) (Array.unsafe_get bits (w + 1))
  else -1

let next t i =
  if i < 0 then invalid_arg (Printf.sprintf "Bitset.next: negative start %d" i);
  if i >= t.universe then -1
  else
    let w = i / bits_per_word in
    next_in t.bits w (t.bits.(w) land (-1 lsl (i mod bits_per_word)))

let elements t =
  let rec from i = match next t i with -1 -> [] | m -> m :: from (m + 1) in
  from 0

let universe t = t.universe
