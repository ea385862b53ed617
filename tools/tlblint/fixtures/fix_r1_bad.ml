(* tlblint fixture: every binding below must fire R1 (poly-compare). *)

let list_eq (a : int list) (b : int list) = a = b
let list_ne (a : int list) (b : int list) = a <> b
let pair_cmp (a : int * int) (b : int * int) = compare a b
let pair_min (a : int * int) (b : int * int) = Stdlib.min a b
let hash_it (x : string list) = Hashtbl.hash x
let phys_nil (a : int list) = a == []
let poly_lt a b = a < b
