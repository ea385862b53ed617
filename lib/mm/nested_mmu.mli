(** Memory accesses through a TLB backed by (optionally nested) page
    tables: the substrate for the page-fracturing experiment (Table 4).

    With an EPT present, translations are the result of a 2D walk and are
    cached at the smaller of the guest/host page sizes; a guest 2 MiB page
    over host 4 KiB pages inserts {e fractured} entries, arming the TLB's
    fracture flag so that any subsequent selective flush degenerates to a
    full flush — the behaviour Table 4 measures. Without an EPT this is a
    plain bare-metal MMU. *)

type t

exception Guest_fault of int  (** VPN with no valid translation *)

val create : ?tlb_capacity:int -> guest:Page_table.t -> ?ept:Ept.t -> pcid:int -> unit -> t

val tlb : t -> Tlb.t

(** Touch [pages] consecutive guest-virtual 4 KiB pages from [start_vpn],
    filling the TLB on each miss; returns (hits, misses).
    @raise Guest_fault on an unmapped page. *)
val touch_range : t -> start_vpn:int -> pages:int -> int * int

(** Guest-initiated INVLPG of one page (fracture promotion applies). *)
val invlpg : t -> vpn:int -> unit

(** Guest-initiated full TLB flush (CR3 write). *)
val full_flush : t -> unit

(** The paper's §7 intermediate mitigation: the host tells the guest,
    through a paravirtual channel, whether page fracturing may happen on
    this VM. A hinted guest stops issuing selective flushes — each would
    silently become a full flush anyway — and goes straight to one full
    flush. *)
val set_paravirt_fracture_hint : t -> bool -> unit

(** Flush a list of pages the way a hinted guest would: per-page INVLPG
    normally, a single full flush when the hint is set. Returns the number
    of flush instructions issued (the guest-visible cost driver). *)
val flush_pages : t -> vpns:int list -> int
