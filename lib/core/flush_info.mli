(** flush_tlb_info: the work descriptor a shootdown carries.

    Mirrors Linux's struct: the address range to invalidate, the stride
    (page size), whether page tables are being freed (disables early ack),
    and the target generation of the owning address space. *)

type t = {
  mm_id : int;
  start_vpn : int;  (** first 4 KiB VPN; meaningless when [full] *)
  pages : int;  (** number of stride-sized pages; meaningless when [full] *)
  full : bool;  (** flush everything for this address space *)
  stride : Tlb.page_size;
  freed_tables : bool;
  new_tlb_gen : int;
}

val ranged :
  mm_id:int -> start_vpn:int -> pages:int -> stride:Tlb.page_size -> freed_tables:bool ->
  new_tlb_gen:int -> t

val full : mm_id:int -> freed_tables:bool -> new_tlb_gen:int -> t

(** Number of TLB entries a ranged flush touches ([max_int] when full). *)
val nr_entries : t -> int

(** Width of a ranged flush in 4 KiB pages (0 when full). *)
val span_4k : t -> int

(** 4 KiB VPNs covered by a ranged flush, in order. *)
val vpns : t -> int list

(** [nth_vpn t i] is [List.nth (vpns t) i], without the list. *)
val nth_vpn : t -> int -> int

(** Does the flush cover 4 KiB page [vpn]? (Full flushes cover all.) *)
val covers : t -> vpn:int -> bool

(** Smallest single info covering both; falls back to [full] when the
    strides differ. Used when merging deferred in-context flushes (§3.4). *)
val merge : t -> t -> t
