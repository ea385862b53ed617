(** A logical CPU: executes simulated work, takes interrupts, owns a TLB.

    Interrupts are serviced at explicit points — between compute chunks,
    inside spin-wait polls, and in idle waits — which models real interrupt
    delivery at instruction boundaries plus dispatch latency. A drain of
    the pending IRQs is one step function, called at each entry, handler
    boundary and exit. At a service point it runs as one charge run of
    the servicing process. A CPU with no such point coming (idle, or
    running kernel code) takes them detached: its dispatch handler drives
    the same step from engine events, with no process. Handler execution
    time is attributed to the CPU's [interrupted_cycles], which is exactly
    what the paper's microbenchmark reports for responder cores.

    Pending IRQs wait in a FIFO ring, and masked ones a drain passes over
    wait in a second ring until the drain ends, then go back on the first
    behind anything still pending. Both rings are power-of-two arrays that
    double when full, so posting and draining allocate nothing once they
    have grown to the most IRQs ever waiting at once. *)

type t

(** An interrupt. Its handler is a step function: [step cpu k] is called
    with [k = 0] at the handler's start, after the entry cost, and with
    [k = 1, 2, ...] at each later boundary it asks for. Each call does the
    work due at that boundary and returns the cost to the next one ([0]
    goes straight on to the next call), or a negative value when the
    handler is done; the exit cost follows. The CPU counts [k]; any other
    place the step keeps between calls lives in per-CPU state (one handler
    runs per CPU at a time). A step never suspends and follows the rules
    of a charge run's visit ({!Process.chain_cpus}). Non-[maskable] IRQs
    (NMIs) are serviced even while interrupts are disabled. *)
type irq = { vector : int; maskable : bool; step : t -> int -> int }

(** [create engine topo costs ~id ~safe] makes CPU [id]. [safe] selects
    mitigation-mode entry costs. *)
val create :
  Engine.t -> Topology.t -> Costs.t -> id:Topology.cpu_id -> safe:bool ->
  ?tlb_capacity:int -> unit -> t

val id : t -> Topology.cpu_id
val tlb : t -> Tlb.t

(** Privilege the CPU would be interrupted from; syscall/fault layers flip
    this. Affects IRQ entry cost in safe mode (paper §5.2). *)
val in_user : t -> bool

val set_in_user : t -> bool -> unit

(** Disable interrupts {e and} wait for any in-flight detached drain to
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

(** Deliver an interrupt to this CPU (called by the APIC at arrival time):
    it joins the pending ring in arrival order. Wakes idle/spinning
    processes, or starts a detached drain. An exception
    from a detached handler's step ends the drain and escapes the engine
    loop unwrapped. *)
val post_irq : t -> irq -> unit

(** Service all pending deliverable IRQs now, paying entry/exit costs:
    the whole drain is one charge run of the calling process, which
    suspends it at most once. No-op if masked (except for NMIs) or if a
    drain is already running. An exception from a handler's step after the
    run's first suspension escapes the engine loop unwrapped. *)
val service_pending : t -> unit

(** Execute [cycles] of work on this CPU, servicing IRQs between chunks of
    [quantum] (default 200) cycles. *)
val compute : t -> ?quantum:int -> int -> unit

(** [compute_until t ?quantum ~chunk until] is a user-mode idle spin: it
    behaves exactly like
    [while not (until ()) do compute t ?quantum chunk done] — same event
    times, event counts and same-cycle order, same IRQ service points, same
    [compute_cycles] total — but quantum boundaries and chunk ends are
    an idle spin ({!Process.spin}), so the process resumes only when an
    IRQ becomes deliverable at a boundary or [until ()] holds at a chunk
    end. The whole stretch costs one effect suspension when nothing
    interrupts it, where the loop costs one or more per chunk, and its
    idle boundaries are not engine events.

    [until] is evaluated once before the first chunk and at chunk ends,
    after that chunk end's IRQ service, and from the second chunk on it
    runs outside the process, possibly before the chunk end's time and
    once for several chunk ends: it must be pure, never suspend, and read
    neither the clock nor {!Engine.current_name}; an exception it raises
    at a chunk end escapes the engine loop unwrapped. [chunk] must be
    positive. *)
val compute_until : t -> ?quantum:int -> chunk:int -> (unit -> bool) -> unit

(** Spin-wait: service deliverable IRQs, then sleep in [Costs.spin_poll]
    polls until [ready ()] holds — or an IRQ becomes deliverable — at a
    poll boundary. Wait loops call it until [ready ()] holds; the next call
    services the IRQ that ended the last one. The polls are an idle spin
    ({!Process.spin}): idle boundaries do not resume the process, and
    [ready] must be pure and read no clock. *)
val poll_wait : t -> (unit -> bool) -> unit

(** [poll_until t ~deadline ready] is {!poll_wait} that also ends at the
    first poll boundary at or past [deadline] (at the first boundary if
    [deadline] is already past). The deadline is the end of the spin's one
    chunk, so [ready] need not, and must not, read the clock. *)
val poll_until : t -> deadline:int -> (unit -> bool) -> unit

(** Is a drain of the pending IRQs in progress? False whenever the CPU is
    quiescent. *)
val draining : t -> bool

(** Pending IRQ count (for tests). *)
val pending_irqs : t -> int

(** Cycles spent in IRQ handlers (entry + handler + exit). *)
val interrupted_cycles : t -> int

(** Number of IRQs fully serviced. *)
val irqs_handled : t -> int

(** Cycles of useful work executed via {!compute}. *)
val compute_cycles : t -> int
[@@tlblint.allow "R5 state accessor: tests read compute accounting through it"]
