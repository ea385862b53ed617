(** Four-level x86-64-style page tables (radix tree), with 2 MiB hugepage
    leaves at level 2.

    Unmapping can release empty page-table pages; whether tables were freed
    is reported to callers because the early-acknowledgement optimization
    must be disabled in that case (paper §3.2: speculative page walks
    through freed tables can machine-check). A freed table leaves the tree
    at once but stays with this page table, which reuses it, empty, for the
    next table it needs at that level.

    A table stores its leaves as {!Pte.t} ints and sets the PS bit on every
    2 MiB leaf, so the size of a mapping, and the levels its walk touched
    (4 for 4 KiB, 3 for 2 MiB), follow from its PTE. Walks, updates,
    unmaps that free no table and [iter] allocate nothing. *)

type t

val create : unit -> t

(** Map one page. For [Two_m] the VPN must be 2 MiB-aligned; raises
    [Invalid_argument] otherwise or if the slot is occupied by a conflicting
    mapping. The PTE must be present; its PS bit is set from [size]. *)
val map : t -> vpn:int -> size:Tlb.page_size -> Pte.t -> unit

(** Remove all mappings whose pages intersect \[vpn, vpn+pages) (a
    hugepage the range only partly covers goes whole), passing each one's
    base VPN and old PTE to [f] in ascending VPN order. Returns whether
    page-table pages were released, which only [free_tables] allows: a
    table that lost a leaf and is left empty, released after [f] has seen
    its leaves. [f] must not change this page table. *)
val unmap_range :
  t -> vpn:int -> pages:int -> free_tables:bool -> f:(int -> Pte.t -> unit) -> bool

(** {!unmap_range} over the one page [vpn]: the mapping covering it. *)
val unmap :
  t -> vpn:int -> ?free_tables:bool -> ?f:(int -> Pte.t -> unit) -> unit -> bool

(** Replace the PTE covering [vpn] with [f] of it and return the old one,
    or {!Pte.none} if [vpn] is unmapped. [f] must keep the PTE present and
    its PS bit as it is. *)
val update : t -> vpn:int -> f:(Pte.t -> Pte.t) -> Pte.t

(** Software page walk: the PTE covering [vpn], or {!Pte.none}. *)
val walk : t -> vpn:int -> Pte.t

(** Present leaf count (hugepages count once). *)
val mapped_count : t -> int
[@@tlblint.allow "R5 state accessor: tests read the leaf count through it"]

(** Page-table pages currently in the tree (excl. root). Tables freed by
    an unmap are kept by this page table and reused for its next tables at
    the same level; they are not counted here. *)
val table_pages : t -> int

(** Table pages released so far by unmaps with [free_tables]. *)
val tables_freed : t -> int

(** Monotone version, bumped by every mutation; lets caches detect change. *)
val version : t -> int

(** Iterate over present leaves as (base vpn, pte), in ascending VPN
    order. *)
val iter : t -> f:(int -> Pte.t -> unit) -> unit
