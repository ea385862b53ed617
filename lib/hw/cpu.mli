(** A logical CPU: executes simulated work, takes interrupts, owns a TLB.

    Interrupts are serviced at explicit points — between compute chunks,
    inside spin-wait polls, and in idle waits — which models real interrupt
    delivery at instruction boundaries plus dispatch latency. A CPU with no
    such point coming (idle, or running kernel code) takes them detached:
    its dispatch handler drives the drain from engine events at the start,
    each IRQ entry boundary and each exit boundary, and runs only the
    handler bodies in pooled processes. Handler execution time is
    attributed to the CPU's [interrupted_cycles], which is exactly what the
    paper's microbenchmark reports for responder cores. *)

type t

(** An interrupt: the [handler] runs in the context of whichever process
    services it and may delay, touch cachelines, flush the TLB, etc.
    Non-[maskable] IRQs (NMIs) are serviced even while interrupts are
    disabled. *)
type irq = { vector : int; maskable : bool; handler : t -> unit }

(** [create engine topo costs ~id ~safe] makes CPU [id]. [safe] selects
    mitigation-mode entry costs. *)
val create :
  Engine.t -> Topology.t -> Costs.t -> id:Topology.cpu_id -> safe:bool ->
  ?tlb_capacity:int -> unit -> t

val id : t -> Topology.cpu_id
val tlb : t -> Tlb.t
val engine : t -> Engine.t
val costs : t -> Costs.t

(** Privilege the CPU would be interrupted from; syscall/fault layers flip
    this. Affects IRQ entry cost in safe mode (paper §5.2). *)
val in_user : t -> bool

val set_in_user : t -> bool -> unit

val irqs_masked : t -> bool
val irq_disable : t -> unit

(** Disable interrupts {e and} wait for any in-flight detached handler to
    finish. After return no handler is running and none can start until
    {!irq_enable} — the state a real CPU is trivially in after CLI, which
    the model must establish explicitly because detached handlers simulate
    asynchronous dispatch. Must run from process context. *)
val quiesce_and_mask : t -> unit

(** Re-enable interrupts; pending maskable IRQs are serviced immediately in
    the calling process's context. *)
val irq_enable : t -> unit

(** Inside an IRQ handler: was the interrupted context user mode? Handlers
    use this to decide whether return-to-user work (e.g. deferred user-PCID
    flushes) must run before the handler completes. Meaningless outside a
    handler. *)
val irq_from_user : t -> bool

(** Mark the CPU as occupied by a (thread) process / released again. While
    an occupying process runs {e user} code, interrupts are only serviced
    at its service points (compute, spin, {!service_pending} calls) —
    handler execution must exclude user-mode execution. In kernel context,
    or with no occupant, delivered IRQs dispatch immediately in a detached
    handler, as hardware would. *)
val occupy : t -> unit

val vacate : t -> unit

(** Deliver an interrupt to this CPU (called by the APIC at arrival time).
    Wakes idle/spinning processes. *)
val post_irq : t -> irq -> unit

(** Service all pending deliverable IRQs now, paying entry/exit costs.
    No-op if masked (except for NMIs) or if a drain is already running. *)
val service_pending : t -> unit

(** Execute [cycles] of work on this CPU, servicing IRQs between chunks of
    [quantum] (default 200) cycles. *)
val compute : t -> ?quantum:int -> int -> unit

(** Spin until [cond ()] holds, servicing IRQs each poll. The condition is
    re-checked every [Costs.spin_poll] cycles. *)
val spin_until : t -> (unit -> bool) -> unit

(** One spin-wait step: service deliverable IRQs, then burn one
    [Costs.spin_poll] interval. Building block for wait loops that
    interleave other work between polls. *)
val poll : t -> unit

(** [poll] fused across idle windows: service deliverable IRQs, then sleep
    in [Costs.spin_poll] ticks until [ready ()] holds — or an IRQ becomes
    deliverable — at a tick boundary. Timing-identical to looping over
    {!poll} with the same exit check between calls, but idle boundaries do
    not resume the process (see {!Process.tick_sleep}); [ready] must be
    observably side-effect-free. *)
val poll_wait : t -> (unit -> bool) -> unit

(** Block until an IRQ is posted (or return immediately if one is pending),
    then service. The idle loop of a core. *)
val idle_wait : t -> unit

(** Is a drain of the pending IRQs in progress? False whenever the CPU is
    quiescent. *)
val draining : t -> bool

(** Detached-dispatch processes running or suspended in an IRQ handler.
    Zero whenever the CPU is quiescent. *)
val busy_dispatchers : t -> int

(** Pending IRQ count (for tests). *)
val pending_irqs : t -> int

(** Cycles spent in IRQ handlers (entry + handler + exit). *)
val interrupted_cycles : t -> int

(** Number of IRQs fully serviced. *)
val irqs_handled : t -> int

(** Cycles of useful work executed via {!compute}. *)
val compute_cycles : t -> int

val reset_accounting : t -> unit
