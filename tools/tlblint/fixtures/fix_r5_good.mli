(* tlblint fixture: every export has a user in another unit or a grant
   that says why it stays — R5 is silent. *)

val used_elsewhere : int -> int
val granted : int -> int [@@tlblint.allow "R5 fixture API kept on purpose"]
