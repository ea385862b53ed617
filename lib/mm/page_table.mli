(** Four-level x86-64-style page tables (radix tree), with 2 MiB hugepage
    leaves at level 2.

    Unmapping can release empty page-table pages; whether tables were freed
    is reported to callers because the early-acknowledgement optimization
    must be disabled in that case (paper §3.2: speculative page walks
    through freed tables can machine-check). A freed table leaves the tree
    at once but stays with this page table, which reuses it, empty, for the
    next table it needs at that level. *)

type t

(** Result of a software page walk. *)
type walk = {
  pte : Pte.t;
  size : Tlb.page_size;
  levels : int;  (** page-table levels touched (4 for 4 KiB, 3 for 2 MiB) *)
}

type range_unmap = {
  removed : (int * Pte.t * Tlb.page_size) list;  (** (vpn, old pte, size) *)
  freed_tables : bool;  (** page-table pages were released *)
}

val create : unit -> t

(** Map one page. For [Two_m] the VPN must be 2 MiB-aligned; raises
    [Invalid_argument] otherwise or if the slot is occupied by a conflicting
    mapping. The PTE must be present. *)
val map : t -> vpn:int -> size:Tlb.page_size -> Pte.t -> unit

(** Remove the mapping covering [vpn] (an unaligned VPN inside a hugepage
    removes the whole hugepage). *)
val unmap : t -> vpn:int -> ?free_tables:bool -> unit -> range_unmap

(** Remove all mappings whose pages intersect \[vpn, vpn+pages). *)
val unmap_range : t -> vpn:int -> pages:int -> ?free_tables:bool -> unit -> range_unmap

(** Apply [f] to the PTE covering [vpn]; returns (old, new) or [None] if
    unmapped. *)
val update : t -> vpn:int -> f:(Pte.t -> Pte.t) -> (Pte.t * Pte.t) option

(** Software page walk. Returns [None] for non-present. *)
val walk : t -> vpn:int -> walk option

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

(** Iterate over present leaves as (vpn, pte, size). *)
val iter : t -> f:(int -> Pte.t -> Tlb.page_size -> unit) -> unit
