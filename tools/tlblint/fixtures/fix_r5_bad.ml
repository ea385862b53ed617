(* tlblint fixture: [internal_only] has a caller, but only in this module;
   the grant on [unreasoned] names no reason. This module is also the
   other unit that uses [Fix_r5_good.used_elsewhere]. *)

let dead x = x + 1
let internal_only x = x * 2
let unreasoned x = internal_only x
let caller () = Fix_r5_good.used_elsewhere 3
