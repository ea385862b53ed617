(** Per-core TLB model: PCID-tagged, capacity-bounded, with a page-walk
    (paging-structure) cache and Intel's page-fracturing full-flush quirk.

    Semantics follow the Intel SDM as described in the paper:
    - INVLPG invalidates one virtual address in the {e current} PCID,
      including global entries, and flushes the entire paging-structure
      cache (§3.4).
    - INVPCID in individual-address mode invalidates one address in {e any}
      PCID and leaves unrelated paging-structure-cache entries alone.
    - A CR3 write flushes the non-global entries of the loaded PCID.
    - Under virtualization, if any cached translation came from a fractured
      guest hugepage (guest 2 MiB backed by host 4 KiB), {e any} selective
      flush degenerates to a full TLB flush (paper §7, Table 4). *)

type page_size = Four_k | Two_m

(** A translation. The TLB keeps one record per slot and rewrites it in
    place on each fill, so a record {!probe} or {!lookup} returns is valid
    until the next fill or flush of that TLB; {!entries} returns copies.
    Only {!Core.Checker} writes a record it was handed, and only
    [ck_ver]. *)
type entry = {
  mutable vpn : int;  (** virtual page number in 4 KiB units (base of the page) *)
  mutable pfn : int;  (** physical frame number backing [vpn] *)
  mutable pcid : int;  (** must fit 12 bits (0..4095) *)
  mutable size : page_size;
  mutable global : bool;  (** G-bit entries survive CR3 writes *)
  mutable writable : bool;
  mutable fractured : bool;  (** produced by a guest-2M x host-4K nested walk *)
  mutable ck_ver : int;
      (** scratch for {!Core.Checker}: the packed page-table version this
          entry was last validated against, [-1] when never validated. Not
          part of the hardware model. *)
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invlpg_ops : int;
  invpcid_ops : int;
  full_flushes : int;
  fracture_full_flushes : int;  (** selective flushes promoted to full *)
}

type t

(** [create ~capacity ()] with FIFO eviction. Default capacity 1536 (Skylake
    STLB-sized). The tables are allocated by the first fills and grow by
    doubling; a warm TLB fills, hits and flushes without allocating. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** [set_flush_meter t f] installs a flush observer: [f full dropped] is
    called with the number of entries dropped by each whole-TLB flush
    ([full = true]: flush_all and fracture promotions) or whole-PCID drop
    ([full = false]: flush_pcid / cr3_flush). Used by the metrics layer. *)
val set_flush_meter : t -> (bool -> int -> unit) -> unit

(** The record {!probe} returns on a miss. Never written. *)
val no_entry : entry

(** [probe t ~pcid ~vpn] checks the 4 KiB mapping, a 4 KiB global, a
    covering 2 MiB mapping and a 2 MiB global, in that order, and returns
    the first found or {!no_entry} (compare with [==]). Counts a hit or
    miss; allocates nothing. *)
val probe : t -> pcid:int -> vpn:int -> entry

(** {!probe} as an option. *)
val lookup : t -> pcid:int -> vpn:int -> entry option

(** Is the translation present (no stats recorded)? *)
val mem : t -> pcid:int -> vpn:int -> bool
[@@tlblint.allow "R5 state accessor: tests read TLB contents through it"]

(** Cache a translation, with [ck_ver = -1]. A resident key is rewritten
    in place and keeps its FIFO place; a new non-global key at capacity
    evicts the oldest live one. Global entries are never evicted. *)
val fill :
  t ->
  vpn:int ->
  pfn:int ->
  pcid:int ->
  size:page_size ->
  global:bool ->
  writable:bool ->
  fractured:bool ->
  unit

(** {!fill} with the fields of an entry. *)
val insert : t -> entry -> unit

(** INVLPG: selective flush of [vpn] in the current PCID [current_pcid];
    also drops global entries for that address and cools the
    paging-structure cache. Promoted to a full flush when the fracture flag
    is set. *)
val invlpg : t -> current_pcid:int -> vpn:int -> unit

(** INVPCID individual-address mode: selective flush of [vpn] under [pcid];
    paging-structure cache survives. Promoted to a full flush when the
    fracture flag is set. *)
val invpcid_addr : t -> pcid:int -> vpn:int -> unit

(** Drop the translation for [vpn] under [pcid] with no instruction
    side-effects: models the hardware's invalidation of a faulting PTE and
    the invalidation a memory access performs after a PTE change (the CoW
    trick of paper §4.1). Leaves the paging-structure cache warm and never
    promotes to a full flush. *)
val drop : t -> pcid:int -> vpn:int -> unit

(** INVPCID single-context mode: drop every entry of [pcid]. *)
val flush_pcid : t -> pcid:int -> unit

(** CR3 write: drop non-global entries of [pcid]. *)
val cr3_flush : t -> pcid:int -> unit

(** Drop everything, globals included (INVPCID all-contexts). *)
val flush_all : t -> unit

(** Paging-structure cache temperature; cold walks cost more. Walks warm it,
    INVLPG and full flushes cool it. *)
val pwc_warm : t -> bool

val warm_pwc : t -> unit

(** True once a fractured entry was inserted; cleared by full flushes. *)
val fracture_flag : t -> bool
[@@tlblint.allow "R5 state accessor: tests read the fracture flag through it"]

val stats : t -> stats

(** All current entries (testing/inspection): non-global entries, then
    global ones, each sorted by packed key, so two TLBs with the same
    contents list them identically whatever their history. *)
val entries : t -> entry list
