(* Checks that an operation is refused by the rule a test expects:
   denials compare structurally and print as their message. *)

open Cubicle

let denial =
  Alcotest.testable (fun ppf d -> Format.pp_print_string ppf (Types.denial_message d)) ( = )

(* The refusal [f] raised, [None] if it returned. *)
let raised f = match f () with _ -> None | exception Types.Denied d -> Some d

let check what expected f = Alcotest.(check (option denial)) what (Some expected) (raised f)
