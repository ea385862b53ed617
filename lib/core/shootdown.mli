(** The TLB shootdown entry points, dispatching to the {!Protocol} backend
    selected by {!Opts.protocol}: the paper's optimized Linux protocol
    ([Paper], Figures 1/3, optimizations selected by its {!Opts.paper}
    knobs), the
    conservative differential-testing oracle ([Oracle]), the cronus-style
    global-lock synchronous broadcast ([Sync_broadcast]) and the
    charmos-style per-CPU ring queue ([Queue_spin]).

    Paper-protocol outline for [flush_tlb_mm_range]:

    + bump the address space's TLB generation (atomic on the mm line);
    + select targets from the cpumask, skipping lazy-TLB CPUs (and, with
      §4.2, CPUs inside batching syscalls) — one remote line read each;
    + enqueue CFDs and send the multicast IPI;
    + flush the local TLB — {e before} sending under the baseline,
      {e while waiting} with concurrent flushing (§3.1); under PTI the user
      PCID is flushed eagerly with INVPCID, or deferred to kernel exit with
      in-context flushing (§3.4), the initiator burning wait-time INVPCIDs
      until the first ack arrives;
    + spin for acknowledgements — which responders send after their flush
      (baseline) or on handler entry (early ack, §3.2, unless page tables
      were freed).

    Responders run {!Flush_core.flush_tlb_func_impl}: skip if their generation is
    already current; take one full flush (fast-forwarding the generation) if
    multiple generations behind; otherwise flush the requested range. *)

(** Flush [pages] 4 KiB pages starting at [start_vpn] of [mm], initiated by
    CPU [from] (which must have [mm] loaded). Blocks (in simulated time)
    until the protocol completes from the initiator's perspective. *)
val flush_tlb_mm_range :
  Machine.t ->
  from:int ->
  mm:Mm_struct.t ->
  start_vpn:int ->
  pages:int ->
  stride:Tlb.page_size ->
  freed_tables:bool ->
  unit

(** One-page convenience wrapper. *)
val flush_tlb_page : Machine.t -> from:int -> mm:Mm_struct.t -> vpn:int -> unit

(** The copy-on-write variant (§4.1): when [cow_avoid_flush] is on and the
    PTE is not executable, the initiator's local INVLPG is replaced by an
    atomic dummy write to the page (which evicts the stale translation and
    keeps the page-walk cache warm); remote CPUs are still shot down, by
    the paper backend's own round with the local flush skipped, if the
    address space is active elsewhere. Falls back to {!flush_tlb_page}
    otherwise. *)
val flush_tlb_page_cow :
  Machine.t -> from:int -> mm:Mm_struct.t -> vpn:int -> executable:bool -> unit

(** Full flush of [mm] everywhere. *)
val flush_tlb_mm : Machine.t -> from:int -> mm:Mm_struct.t -> unit

(** Execute the pending deferred user-PCID flush (§3.4), i.e. the work done
    right before returning to user mode: INVLPG per merged-range page (plus
    an LFENCE against Spectre-v1 skipping), or a CR3-borne full flush when
    past the threshold or when [has_stack] is false. Called by the syscall
    exit path and by the IPI handler when it interrupted user mode. *)
val flush_pending_user : Machine.t -> cpu:int -> has_stack:bool -> unit

(** The return-to-user sequence: with interrupts disabled (as the real exit
    trampoline runs), execute the pending deferred user flush, switch to
    user mode, and re-enable interrupts — at which point queued IPIs are
    serviced {e before} the first user instruction. Every path that resumes
    user execution must go through this, or an IPI landing between the
    deferred flush and the mode switch could leave a never-executed
    deferral behind. *)
val return_to_user : Machine.t -> cpu:int -> has_stack:bool -> unit

(** Perform the deferred batched shootdowns (§4.2) accumulated while
    [batched_mode]; called before releasing mmap_sem. *)
val flush_batched : Machine.t -> from:int -> mm:Mm_struct.t -> unit

(** The exit-side memory barrier of §4.2 and the lazy-TLB resume check: if
    this CPU's loaded mm has advanced past the generation it has seen, take
    a full local flush. One mm-line read. *)
val check_and_sync_tlb : Machine.t -> cpu:int -> unit

(** nmi_uaccess_okay (§3.2): may an NMI handler running on [cpu] touch user
    memory right now? False while a shootdown has been acknowledged but not
    executed (early ack), while shootdown work is still queued, or while a
    deferred user-PCID flush is pending — the situations in which the TLB
    may hold mappings the rest of the kernel already considers dead.
    Linux's NMI/kprobe paths already perform the base check; the paper
    extends it to cover early acknowledgement. The "work still queued"
    condition is the active backend's {!Protocol.t.responder_pending}
    hook — CSQ entries for [Paper]/[Oracle], an unapplied posted broadcast
    for [Sync_broadcast], an undrained ring for [Queue_spin]. *)
val nmi_uaccess_okay : Machine.t -> cpu:int -> bool

(** Backend-specific quiescence invariants: report (through the callback)
    any protocol state on [cpu] that should not survive quiescence — an
    undrained [Queue_spin] ring, a still-posted [Sync_broadcast]
    descriptor. Driven per CPU by [Kernel.check_quiescent] alongside its
    generic checks. *)
val protocol_quiescent : Machine.t -> cpu:int -> (string -> unit) -> unit
