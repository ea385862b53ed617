(** An address space (Linux mm_struct): page table, VMAs, the TLB
    generation counter, and the CPU mask that drives shootdown targeting.

    The generation counter is the heart of Linux's flush-tracking: every PTE
    change bumps [tlb_gen]; each CPU records the generation it has flushed
    up to, so redundant flush requests can be skipped and a CPU several
    generations behind takes one full flush instead of many ranged ones —
    the behaviour that shapes the Sysbench flush storms (§5.2). *)

type t

(** [create ~engine ~registry ~frames ~n_cpus ~id] — [registry] prices the
    mm's shared cacheline (tlb_gen + cpumask live together and bounce). *)
val create :
  engine:Engine.t ->
  registry:Cache.registry ->
  frames:Frame_alloc.t ->
  n_cpus:int ->
  id:int ->
  t

val id : t -> int
val page_table : t -> Page_table.t
val frames : t -> Frame_alloc.t
val mmap_sem : t -> Rwsem.t

(** The contended cacheline holding tlb_gen and the cpumask. *)
val line : t -> Cache.line

(** Current TLB generation. *)
val tlb_gen : t -> int

(** Atomically bump and return the new generation (caller pays the
    cacheline cost separately via {!line}). *)
val bump_tlb_gen : t -> int

(** CPUs on which this address space is (or recently was) active, as the
    live bitset — what the shootdown paths iterate (snapshotting into a
    scratch set first; {!Proto_paper.select_targets} yields between candidate
    reads, and the mask may change under it). Callers must not mutate it
    except through {!cpu_set}/{!cpu_clear}. *)
val cpuset : t -> Cpuset.t

val cpu_set : t -> cpu:int -> unit
val cpu_clear : t -> cpu:int -> unit

(* --- VMA management (callers hold mmap_sem) --- *)

val vmas : t -> Vma.Set.set
val add_vma : t -> Vma.t -> unit
val find_vma : t -> vpn:int -> Vma.t option
val remove_vma_range : t -> vpn:int -> pages:int -> Vma.t list

(** Pick an unused address range of [pages] pages (simple bump allocator).
    [align] (in 4 KiB pages, default 1) aligns the base — hugepage mappings
    pass 512. *)
val alloc_va_range : t -> ?align:int -> pages:int -> unit -> int

(** Ensure future allocations start at or above [min_vpn] (used when a
    forked child inherits the parent's layout). *)
val reserve_va : t -> min_vpn:int -> unit
