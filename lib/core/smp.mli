(** The SMP function-call layer: call-single queues, call-function data and
    acknowledgements, with every cacheline access priced.

    This is the mechanism layer of the shootdown ({!Shootdown} is the
    policy): enqueueing work to remote CPUs, sending the multicast IPI,
    draining the queue on the responder, and spinning for acks on the
    initiator. Which lines are touched depends on the paper knob
    [cacheline_consolidation] (§3.3; off under every other backend): the consolidated layout inlines
    the flush info in the CSD and colocates the lazy flag with the queue
    head. *)

(** The shootdown IPI vector (CALL_FUNCTION_SINGLE_VECTOR-ish); the vector
    {!Shootdown} stamps on the irq records it registers with the APIC. *)
val tlb_shootdown_vector : int

(** Read the "is this CPU lazy / in a batched syscall" state of [target]
    from [from]: one cacheline read whose identity depends on the layout.
    Returns its cost, for a charge run ({!Machine.chain_cpus}). *)
val read_remote_tlb_state : Machine.t -> from:int -> target:int -> int

(** The line holding a CPU's lazy/batched flags under the active layout:
    its call-queue line when consolidated, its tlb_state line otherwise. *)
val tlb_state_line : Machine.t -> Percpu.t -> Cache.line

(** Build and enqueue one CFD per member of the target set (pays the CSD
    writes, the info write under the baseline layout, and the queue-head
    writes), returning the CFDs in ascending target order. Does not send
    IPIs. [targets] is typically the caller's scratch cpuset; it is read
    before each enqueue and must not change until the matching
    {!send_ipis} — nothing that runs during the charge-yields selects
    targets on this CPU. *)
val enqueue_work :
  Machine.t ->
  from:int ->
  targets:Cpuset.t ->
  info:Flush_info.t ->
  early_ack:bool ->
  Percpu.cfd array

(** Send the shootdown vector to [targets]; the pre-registered irq
    [irq_id] (see {!Apic.register_irq}) runs on each target when it
    services the IPI. Pays the sender's ICR-write cost inline. Taking an
    id instead of a handler keeps the send path allocation-free: the two
    shootdown handlers are fixed per machine, so {!Shootdown} registers
    each once and reuses it for every send. *)
val send_ipis : Machine.t -> from:int -> targets:Cpuset.t -> irq_id:int -> unit

(** [drain_queue m ~work] builds, once per machine, the responder's drain
    of its call queue as one charge run ({!Machine.chain_item}), returned
    as [(lead, visit)]: [lead me] is the queue-line read, and [visit me]
    runs the phases after it: for each CFD in FIFO
    order the CSD-line read and, under the baseline layout, the info-line
    read and a page walk, then [work cfd 0], [work cfd 1], ... — the
    backend's phases, which follow the rules of a charge-run visit — until
    [work] returns a negative cost. The run ends at the end of a request
    that leaves the queue empty. A request counts as released when [work]
    has left it executed and acked (see {!csd_quiescent}). *)
val drain_queue :
  Machine.t -> work:(Percpu.cfd -> int -> int) -> (int -> int) * (int -> int -> int)

(** An ack as two phases of a [work] run: [ack_write m ~me cfd] flips the
    CFD's ack flag and returns the cost of the line write (0, and nothing
    in flight, when it was already acked); [ack_landed m ~me cfd], at the
    boundary after, emits the trace event of a write in flight, marked
    early when the CFD allowed an early ack (§3.2). *)
val ack_write : Machine.t -> me:int -> Percpu.cfd -> int

val ack_landed : Machine.t -> me:int -> Percpu.cfd -> unit

(** CSD conservation at quiescence: calls [fail] when [cpu] has not
    executed and acked every CFD queued on it. *)
val csd_quiescent : Machine.t -> cpu:int -> (string -> unit) -> unit

(** Initiator: spin until every CFD is acked, servicing our own IRQs while
    spinning. [while_waiting] is called between polls while at least one ack
    is outstanding (used by the in-context/concurrent interplay of §3.4);
    it must be cheap or advance time itself. [waiting_work] must report —
    without observable side effects — whether [while_waiting] would do
    anything right now: a poll boundary where it is [false], no ack has
    landed and no IRQ is deliverable is an idle tick the initiator sleeps
    through without being resumed (the default [fun () -> false] matches
    the default no-op [while_waiting]). Pays one read per CFD to observe
    the acks. *)
val wait_for_acks :
  Machine.t ->
  from:int ->
  Percpu.cfd array ->
  ?while_waiting:(unit -> unit) ->
  ?waiting_work:(unit -> bool) ->
  unit ->
  unit
