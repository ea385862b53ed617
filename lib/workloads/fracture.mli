(** The page-fracturing experiment (paper §7, Table 4).

    A working set is touched repeatedly; between rounds the "guest" issues
    either a full TLB flush or a selective flush of an {e unmapped} page.
    dTLB misses accumulate across rounds. On bare metal and in VMs without
    fracturing, the selective flush preserves the working set (misses stay
    near one compulsory fill); when guest 2 MiB pages sit on host 4 KiB
    pages, the TLB's fracture flag promotes every selective flush to a full
    flush and the selective column explodes to match the full one. *)

type vm_shape = {
  label : string;
  host : Tlb.page_size option;  (** [None] = bare metal (no EPT) *)
  guest : Tlb.page_size;
}

(** The six rows of Table 4, in the paper's order. *)
val table4_rows : vm_shape list

type config = {
  working_set_pages : int;  (** 4 KiB pages touched per round *)
  rounds : int;
  tlb_capacity : int;
}

type result = {
  shape : vm_shape;
  full_misses : int;  (** dTLB misses with a full flush per round *)
  selective_misses : int;  (** dTLB misses with a selective flush per round *)
  fracture_promotions : int;  (** selective flushes promoted to full *)
}

(** Run one shape under both flush regimes. *)
val run_shape : config -> vm_shape -> result

val run_all : config -> result list

(** First VPN of the working set (2 MiB-aligned). *)
val base_vpn : int

(** Build the MMU for a shape without running the experiment — for the
    paravirtual-hint extension and for tests. *)
val build_mmu_for_tests : config -> vm_shape -> Nested_mmu.t
