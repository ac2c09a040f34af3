(** Int-keyed hash tables whose hash is computed in OCaml, without a C
    call. For tables no output iterates: bucket order differs from
    [Hashtbl.Make (Int)]'s. *)

include Hashtbl.S with type key = int
