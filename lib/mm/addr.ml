let page_shift = 12
let page_size = 1 lsl page_shift
let pages_per_huge = 512

let vpn_of_addr addr = addr lsr page_shift
let addr_of_vpn vpn = vpn lsl page_shift
let huge_aligned vpn = vpn land (pages_per_huge - 1) = 0

let pages_of_size = function Tlb.Four_k -> 1 | Tlb.Two_m -> pages_per_huge
