(** Thread and process plumbing, the brackets around every PTE change, a
    one-page change in its window ([change_pte]) and the trace of a PTE
    write ([trace_pte_write]): the top of the public API.

    A "user thread" is a simulated process pinned to one CPU with one
    address space loaded; its body calls {!Access} and {!Syscall}. At most
    one user thread may run per CPU at a time (the workloads in this
    reproduction pin 1:1, as the paper's benchmarks effectively do).

    Each bracket runs its clean-up by hand, so it builds no closure of its
    own: a body exception runs the clean-up and is re-raised with its
    backtrace, and an exception from the clean-up escapes as
    [Fun.Finally_raised], as with [Fun.protect]. *)

(** [spawn_user m ~cpu ~mm ~name body] starts a user thread: loads [mm] on
    [cpu] (paying the context switch), marks the CPU as running user code,
    runs [body], and unloads on exit. *)
val spawn_user :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> name:string -> (unit -> unit) -> unit

(** A system call on [cpu]: the mitigation-mode entry cost, the body, the
    exit cost and the return to user, which runs the deferred user-PCID
    flush (§3.4) right before the CR3 switch. *)
val in_syscall : Machine.t -> cpu:int -> (unit -> 'a) -> 'a

(** A kernel service (migration, KSM, the fault handler): the CPU leaves
    user mode for the body, and returns to user afterwards only if it was
    there. [enter_service] returns whether it was, for [leave_service]. *)
val in_service : Machine.t -> cpu:int -> (unit -> 'a) -> 'a

val enter_service : Machine.t -> cpu:int -> bool
val leave_service : Machine.t -> cpu:int -> was_user:bool -> unit

(** [mm]'s mmap_sem held for writing or reading. A [batched] section
    (§4.2) puts [cpu] in batched mode when userspace batching is on, and
    flushes the shootdowns it deferred before releasing the semaphore.
    [lock_mmap] and [unlock_mmap] are its halves, for the fault handler. *)
val in_mmap_sem :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> write:bool -> batched:bool ->
  (unit -> 'a) -> 'a

val lock_mmap :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> write:bool -> batched:bool -> unit

val unlock_mmap :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> write:bool -> batched:bool -> unit

(** [in_window m ~cpu ~mm ~vpn ~pages x body] is [body m ~cpu ~mm ~vpn
    ~pages x] inside an invalidation window over [pages] pages of [mm] from
    [vpn] (the window is opened with {!Machine.begin_window} and closed
    with {!Machine.end_window}): stale hits stay legal from the change
    until the flush returns, and the windows the flush opens (and batching
    keeps open) take over from there. [body] gets the window's own
    arguments, and [x] for anything else it needs, so a toplevel [body]
    makes the bracket allocate nothing. [pages] must be positive. *)
val in_window :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> pages:int -> 'x ->
  (Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> pages:int -> 'x -> 'a) -> 'a

(** {!in_window} over the whole of [mm]; [body] gets [~vpn:0 ~pages:0]. *)
val in_mm_window :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> 'x ->
  (Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> pages:int -> 'x -> 'a) -> 'a

(** Record that [pages] PTEs of [mm] from [vpn] changed ({!Trace.Pte_write}),
    when tracing. Every PTE write that needs a shootdown calls it inside
    the change's window, so the race detector can tie a stale hit to it. *)
val trace_pte_write :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> pages:int -> unit

(** One PTE change of §2.3.2: in the page's window, the PTE covering [vpn]
    becomes [f] of it ({!Page_table.update}) and, if it was present, the
    write is traced and shot down ({!Shootdown.flush_tlb_page}). *)
val change_pte :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> f:(Pte.t -> Pte.t) -> unit

(** Run the machine to quiescence and re-raise any process failure. *)
val run : Machine.t -> unit

(** The invariants of a machine run to quiescence, the one list that
    workloads, the differential fuzzer and the interleaving explorer all
    check: no checker violation, no open invalidation window, every IPI
    handled once and none pending ({!Machine.ipi_invariants}), and on every
    CPU no surviving deferred user flush, no undrained call queue, no stuck
    inflight-flush flag, no unflushed batch and a quiescent protocol
    backend ({!Shootdown.protocol_quiescent}); last, every engine event
    row is back on the arena's free list and no idle spin is pending
    ({!Sim.Engine.live_rows}). Calls
    [add_failure] once per violated invariant. *)
val check_quiescent : Machine.t -> (string -> unit) -> unit

(** End-of-run check for the workloads, after {!run}: {!check_quiescent},
    raising [Failure (who ^ ": " ^ reasons)] once, where [reasons] names
    every failure in {!check_quiescent}'s order, separated by ["; "]. A
    checker violation is reported before any of them, and alone, as
    ["TLB coherence violation: "] and the first recorded violation
    ({!Checker.pp_violation}). *)
val check_run : Machine.t -> who:string -> unit
