type t = int

let present_bit = 1
let write_bit = 1 lsl 1
let user_bit = 1 lsl 2
let accessed_bit = 1 lsl 5
let dirty_bit = 1 lsl 6
let huge_bit = 1 lsl 7
let global_bit = 1 lsl 8
let cow_bit = 1 lsl 9
let nx_bit = 1 lsl 62
let pfn_shift = 12
let max_pfn = (1 lsl 40) - 1
let none = 0
let has bit t = t land bit <> 0
let with_bit bit t b = if b then t lor bit else t land lnot bit
let pfn t = (t lsr pfn_shift) land max_pfn
let present t = has present_bit t
let writable t = has write_bit t
let global t = has global_bit t
let dirty t = has dirty_bit t
let executable t = not (has nx_bit t)
let cow t = has cow_bit t
let size t = if has huge_bit t then Tlb.Two_m else Tlb.Four_k

let with_pfn t pfn =
  if pfn < 0 || pfn > max_pfn then invalid_arg "Pte.with_pfn: frame number out of range";
  (t land lnot (max_pfn lsl pfn_shift)) lor (pfn lsl pfn_shift)

let with_writable t b = with_bit write_bit t b
let with_executable t b = with_bit nx_bit t (not b)
let with_dirty t b = with_bit dirty_bit t b
let with_size t = function
  | Tlb.Four_k -> t land lnot huge_bit
  | Tlb.Two_m -> t lor huge_bit
let user_data ~pfn = with_pfn (present_bit lor write_bit lor user_bit lor nx_bit) pfn
let make_cow t = (t land lnot write_bit) lor cow_bit
let break_cow t ~new_pfn =
  (with_pfn t new_pfn lor write_bit lor dirty_bit) land lnot cow_bit
let mark_dirty t = t lor dirty_bit lor accessed_bit
let write_protect t = t land lnot write_bit
let clean t = t land lnot dirty_bit
