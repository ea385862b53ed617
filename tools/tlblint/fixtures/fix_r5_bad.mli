(* tlblint fixture: exports no other unit uses — each [val] fires R5. *)

val dead : int -> int
val internal_only : int -> int
val unreasoned : int -> int [@@tlblint.allow "R5"]
