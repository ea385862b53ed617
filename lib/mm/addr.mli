(** Virtual-address arithmetic helpers.

    Addresses are byte addresses held in OCaml ints; page numbers (VPN/PFN)
    are in 4 KiB units throughout the simulator, matching {!Tlb.entry}. *)

val page_size : int

(** 4 KiB pages per 2 MiB hugepage (512). *)
val pages_per_huge : int

(** Byte address -> 4 KiB virtual page number. *)
val vpn_of_addr : int -> int

(** 4 KiB virtual page number -> byte address of the page base. *)
val addr_of_vpn : int -> int

(** Is the VPN 2 MiB-aligned (could start a hugepage)? *)
val huge_aligned : int -> bool

(** Number of 4 KiB pages covered by one page of [size]. *)
val pages_of_size : Tlb.page_size -> int
