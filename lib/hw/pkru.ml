type t = int

let nkeys = 16
let all_allow = 0
let all_deny = (1 lsl (2 * nkeys)) - 1

let check_key k =
  if k < 0 || k >= nkeys then invalid_arg (Printf.sprintf "Pkru: key %d out of range" k)

let deny r k =
  check_key k;
  r lor (0b11 lsl (2 * k))

let allow r k =
  check_key k;
  r land lnot (0b11 lsl (2 * k))

let allow_read_only r k =
  check_key k;
  allow r k lor (0b10 lsl (2 * k))

let can_read r k =
  check_key k;
  r land (1 lsl (2 * k)) = 0

let can_write r k =
  check_key k;
  r land (0b11 lsl (2 * k)) = 0

let of_keys ks = List.fold_left allow all_deny ks
