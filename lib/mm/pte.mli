(** Page-table entries.

    An entry is an immediate int laid out like an x86-64 PTE: the flag bits
    the paper's code paths read (P, R/W, U/S, A, D, PS, G and NX), the
    software COW marker Linux keeps in a software-available bit, and the
    frame number above bit 12. Being immediate, a PTE costs no allocation
    to build, copy or store, and a page table keeps its entries in plain
    [int] arrays. x86-64 puts NX at bit 63, one past the top of OCaml's
    63-bit int, so here it is bit 62. *)

type t = private int

(** The all-zero entry: not present. A page table stores only present
    entries, so no stored PTE equals it. *)
val none : t

(** A present, writable, non-executable user mapping of [pfn] (4 KiB
    units, at most 2{^40} - 1). *)
val user_data : pfn:int -> t

val pfn : t -> int
val present : t -> bool
val writable : t -> bool

(** G: survives CR3 writes. *)
val global : t -> bool

val dirty : t -> bool

(** NX clear. *)
val executable : t -> bool

(** Write-protected copy-on-write page. *)
val cow : t -> bool

(** The PS bit: a page table sets it on every 2 MiB leaf. *)
val size : t -> Tlb.page_size

val with_pfn : t -> int -> t
val with_writable : t -> bool -> t
val with_executable : t -> bool -> t
val with_dirty : t -> bool -> t
val with_size : t -> Tlb.page_size -> t

(** Write-protect and mark COW. *)
val make_cow : t -> t

(** Resolve COW: new frame, writable, not COW. *)
val break_cow : t -> new_pfn:int -> t

(** Set D and A. *)
val mark_dirty : t -> t

val write_protect : t -> t
val clean : t -> t
