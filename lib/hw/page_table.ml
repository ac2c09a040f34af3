type perm = { r : bool; w : bool; x : bool }

let perm_r = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_x = { r = false; w = false; x = true }

(* Entries are packed into an int array: bit 0 present, bits 1-3 R/W/X,
   bits 4-7 the MPK key. [on_change] fires after every entry mutation
   so the CPU's software TLB can invalidate its cached decision for
   that page, no matter who performed the mutation (monitor retags,
   loader perm setup, tests poking the table directly). *)
type t = { entries : int array; mutable on_change : int -> unit }

let create npages = { entries = Array.make npages 0; on_change = ignore }
let set_hook t f = t.on_change <- f

let check t p =
  if p < 0 || p >= Array.length t.entries then
    invalid_arg (Printf.sprintf "Page_table: page %d out of range" p)

let present t p =
  check t p;
  t.entries.(p) land 1 = 1

let set_present t p b =
  check t p;
  t.entries.(p) <- (if b then t.entries.(p) lor 1 else t.entries.(p) land lnot 1);
  t.on_change p

let perm t p =
  check t p;
  let e = t.entries.(p) in
  { r = e land 2 <> 0; w = e land 4 <> 0; x = e land 8 <> 0 }

let set_perm t p { r; w; x } =
  check t p;
  let bits = (if r then 2 else 0) lor (if w then 4 else 0) lor if x then 8 else 0 in
  t.entries.(p) <- t.entries.(p) land lnot 0b1110 lor bits;
  t.on_change p

let key t p =
  check t p;
  (t.entries.(p) lsr 4) land 0xF

let set_key t p k =
  check t p;
  if k < 0 || k >= Pkru.nkeys then invalid_arg "Page_table.set_key: bad key";
  t.entries.(p) <- t.entries.(p) land lnot 0xF0 lor (k lsl 4);
  t.on_change p

let allows t p (a : Fault.access) =
  check t p;
  t.entries.(p) land (match a with Fault.Read -> 2 | Fault.Write -> 4 | Fault.Exec -> 8) <> 0
