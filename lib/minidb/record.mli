(** Row (record) serialization: typed column values packed into a byte
    string, SQLite-record style (a header of type tags followed by the
    column payloads). *)

type value = Null | Int of int64 | Text of string

val int : int -> value
(** Convenience for [Int (Int64.of_int n)]. *)

val to_int : value -> int
(** Raises [Invalid_argument] on non-integers. *)

val to_text : value -> string

val encode : value list -> string
val decode : string -> value list
(** Raises [Invalid_argument] on malformed input. *)

val compare_value : value -> value -> int
(** NULL < Int < Text; ints numerically, texts lexicographically. *)

val pp : Format.formatter -> value -> unit
