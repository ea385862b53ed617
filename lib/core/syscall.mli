(** The system calls the paper's workloads exercise, with mitigation-mode
    entry/exit costs, PTI's deferred user-PCID flush at kernel exit (§3.4),
    and userspace-safe batching (§4.2).

    Batching-eligible calls (msync, munmap, madvise(DONTNEED), fdatasync)
    mark the CPU as [batched_mode] for their duration: their own flushes
    defer to the mmap_sem-release barrier, and other initiators may skip
    IPI-ing this CPU, which then synchronizes via the generation check on
    the way out. All calls must run on a CPU with an address space loaded
    (see {!Kernel.spawn_user}). *)

(** Anonymous or file-backed mapping; returns the base virtual address.
    Lazy: no PTEs are created until pages are touched. [page_size = Two_m]
    creates an anonymous hugepage mapping ([pages] still in 4 KiB units,
    must be a multiple of 512); its flushes use the 2 MiB stride. *)
val mmap :
  Machine.t ->
  cpu:int ->
  pages:int ->
  ?writable:bool ->
  ?executable:bool ->
  ?backing:Vma.backing ->
  ?page_size:Tlb.page_size ->
  unit ->
  int

(** Unmap, releasing page tables (so early ack is disabled for its flush)
    and freeing privately owned frames after the shootdown completes. *)
val munmap : Machine.t -> cpu:int -> addr:int -> pages:int -> unit

(** madvise(MADV_DONTNEED): drop PTEs and reclaim anonymous frames; the
    paper's microbenchmark driver. *)
val madvise_dontneed : Machine.t -> cpu:int -> addr:int -> pages:int -> unit

(** Change protection of \[addr, addr+pages); updates VMAs and live PTEs,
    then flushes. *)
val mprotect : Machine.t -> cpu:int -> addr:int -> pages:int -> writable:bool -> unit

(** Move the mapping at \[addr, addr+pages) to a fresh address range
    (MREMAP_MAYMOVE): VMAs and live PTEs are rebased without copying
    frames, the old range is shot down (page tables freed), and the new
    base address returned. *)
val mremap : Machine.t -> cpu:int -> addr:int -> pages:int -> int

(** Write back dirty pages of the shared file mapping covering the range:
    write-protect + clean each dirty PTE (one flush each — the
    shootdown-storm path), then write the page out. *)
val msync : Machine.t -> cpu:int -> addr:int -> pages:int -> unit
[@@tlblint.allow "R5 paper entry point: the §4.2 write-protect storm, pinned by tests"]

(** Write back every dirty page of [file] through whatever mapping of it
    exists in the calling address space (sysbench's fdatasync). *)
val fdatasync : Machine.t -> cpu:int -> file:File.t -> unit
