(* [Hashtbl.Make (Int)] calls the C [caml_hash] on every lookup. This
   hash is inline: the multiply spreads keys that differ only in high
   bits (page-aligned addresses, packed pairs) over the product, and the
   shift folds those bits into the low ones [Hashtbl] picks buckets by. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = let h = k * 0x2545_F491_4F6C_DD1D in h lxor (h lsr 32)
end)
