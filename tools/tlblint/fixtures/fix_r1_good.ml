(* tlblint fixture: immediate-type comparisons, float ordering and suppressed
   sites — silent. *)

type color = Red | Green | Blue

let int_eq (a : int) (b : int) = a = b
let color_eq (a : color) (b : color) = a = b
let char_cmp (a : char) (b : char) = compare a b
let bool_min (a : bool) (b : bool) = Stdlib.min a b
let[@tlblint.allow "R1"] suppressed_binding (a : int list) (b : int list) = a = b
let suppressed_expr (a : int list) (b : int list) = ((a = b) [@tlblint.allow "R1"])
let int_lt (a : int) (b : int) = a < b
let float_ge (a : float) (b : float) = a >= b
