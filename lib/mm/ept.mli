(** Extended page tables (guest-physical to host-physical) and nested
    translation, for the page-fracturing experiment (paper §7, Table 4).

    A nested ("2D") walk combines the guest's GVA→GPA mapping with the
    host's GPA→HPA mapping; the TLB caches the combined GVA→HPA translation
    at the {e smaller} of the two page sizes. A guest 2 MiB page backed by
    host 4 KiB pages is thereby "fractured": the TLB holds up to 512
    independent 4 KiB entries for it, and Intel CPUs flag the TLB so that
    any later selective flush is promoted to a full flush. *)

type t

val create : unit -> t

(** Map guest frame number [gfn] to host frame number [hfn]. For [Two_m],
    both must be 2 MiB-aligned. *)
val map : t -> gfn:int -> size:Tlb.page_size -> hfn:int -> unit

module Nested : sig
  type result = {
    hfn : int;  (** host frame backing the 4 KiB guest virtual page *)
    guest_size : Tlb.page_size;
    host_size : Tlb.page_size;
    effective_size : Tlb.page_size;  (** what the TLB can cache *)
    fractured : bool;  (** guest 2 MiB over host 4 KiB *)
    levels : int;  (** total page-table levels touched (guest + host walks) *)
    pte : Pte.t;  (** the guest PTE (permissions) *)
  }

  (** Full 2D walk of guest virtual page [vpn]. [None] if either level is
      unmapped or non-present. *)
  val translate : guest:Page_table.t -> ept:t -> vpn:int -> result option
end
