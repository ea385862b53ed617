(** The cycle-cost model: every latency constant in the simulator.

    This is the single calibration point of the reproduction. Values are
    drawn from figures stated in the paper (INVLPG ~200 cycles/entry, IPI
    delivery often over 1000 cycles, shootdowns costing thousands of cycles,
    INVPCID slower than INVLPG by ~110 cycles/entry on Skylake) and from
    public measurements of Skylake-era syscall/interrupt overheads. Absolute
    numbers are approximate by design; the experiments report relative
    behaviour. *)

type t = {
  (* --- TLB instructions --- *)
  invlpg : int;  (** flush one PTE in the active address space *)
  invpcid_single : int;  (** flush one PTE in another PCID (slower) *)
  invpcid_full : int;  (** flush all entries of one PCID *)
  cr3_write : int;  (** address-space switch / full non-global flush *)
  lfence : int;  (** speculation barrier after deferred-flush loop *)
  (* --- memory & page walks --- *)
  page_walk : int;  (** 4-level walk with warm paging-structure caches *)
  page_walk_cold : int;  (** walk after the paging-structure cache was lost *)
  atomic_op : int;  (** LOCK-prefixed RMW on a cached line *)
  mem_access : int;  (** one user load/store that hits caches and TLB *)
  page_copy : int;  (** copy one 4 KiB page *)
  page_zero : int;  (** zero one freshly allocated 4 KiB page *)
  io_page : int;  (** write back one 4 KiB page to (persistent-memory) storage *)
  fsync_fixed : int;
      (** per-call filesystem work of fsync/fdatasync (journal commit,
          radix-tree sweeps) independent of the dirty page count *)
  (* --- cacheline transfers, by distance --- *)
  line_local : int;
  line_smt : int;
  line_same_socket : int;
  line_cross_socket : int;
  (* --- APIC --- *)
  icr_write : int;  (** one ICR write (per multicast cluster) *)
  ipi_fixed : int;  (** delivery pipeline minimum *)
  ipi_smt : int;
  ipi_same_socket : int;
  ipi_cross_socket : int;
  (* --- kernel entry/exit (mode-dependent; "safe" = PTI + mitigations) --- *)
  syscall_entry_unsafe : int;
  syscall_exit_unsafe : int;
  syscall_entry_safe : int;  (** incl. trampoline + CR3 switch *)
  syscall_exit_safe : int;
  irq_entry_kernel_unsafe : int;
  irq_entry_user_unsafe : int;
  irq_entry_kernel_safe : int;
  irq_entry_user_safe : int;  (** notably slower: trampoline + CR3 *)
  irq_exit : int;  (** EOI + iret *)
  (* --- kernel software paths --- *)
  lock_uncontended : int;
  spin_poll : int;  (** polling granularity while spin-waiting *)
  zap_pte : int;  (** per-PTE page-table teardown work in madvise/munmap *)
  fault_fixed : int;  (** page-fault entry/exit + VMA lookup, excl. copy *)
  fault_fixed_safe_extra : int;  (** extra PTI cost on the fault path *)
  vma_op : int;  (** mmap/munmap VMA bookkeeping *)
  context_switch : int;  (** scheduler + register state, excl. CR3 *)
}

val default : t

(** Canonical value key over every field: equal keys iff identical cost
    models. Used by the bench harness to memoize identical (config, seed)
    cells across experiments. *)
val key : t -> string

(** IPI delivery latency (send-to-handler-start) for a given distance.
    [Self] never happens (no self-IPI in the shootdown protocol). *)
val ipi_latency : t -> Topology.distance -> int

(** Cost of pulling a cacheline whose current owner is at [distance]. *)
val line_transfer : t -> Topology.distance -> int

(** Syscall entry/exit and IRQ entry given the mitigation mode. *)
val syscall_entry : t -> safe:bool -> int
val syscall_exit : t -> safe:bool -> int
val irq_entry : t -> safe:bool -> from_user:bool -> int
