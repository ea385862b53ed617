(** The paper's optimized Linux protocol backend (Figures 1/3): targeted
    IPIs over the mm cpumask with lazy/batched filtering, generation
    bookkeeping, and the Table-1 optimizations its {!Opts.paper} knobs switch on. *)

val backend : Protocol.t

(** Select remote shootdown targets into [from]'s scratch cpuset, skipping
    lazy-TLB CPUs and (under §4.2) CPUs inside batching syscalls; one
    remote line read per candidate. Exposed for the CoW elision path in
    {!Shootdown.flush_tlb_page_cow}, which is paper-protocol machinery. *)
val select_targets :
  Machine.t -> from:int -> mm:Mm_struct.t -> Flush_info.t -> Cpuset.t

(** The backend's registered shootdown irq id (for the CoW path's direct
    IPI send). *)
val irq_id : Machine.t -> int
