(** x2APIC in cluster mode: unicast and multicast IPIs.

    Multicast IPIs reach a subset of one 16-CPU cluster per ICR write, so a
    shootdown spanning several clusters pays one ICR write each (paper §2.2).
    Delivery latency is priced by topological distance; handlers start when
    the target CPU next services interrupts. *)

type t

val create : Engine.t -> Topology.t -> Costs.t -> cpus:Cpu.t array -> t

(** [set_delivery_meter t f] installs a per-IPI observer: [f rank cycles]
    is called once per target with the {!Topology.distance_rank} of
    sender→target and the delivery latency (ICR-write queueing + flight
    time) that target experiences. Used by the metrics layer; without a
    meter the send path pays one load+branch. *)
val set_delivery_meter : t -> (int -> int -> unit) -> unit

(** [register_irq t irq] stores [irq] in the APIC's registry and returns
    its id for {!send_ipi_id}. IRQ records are immutable and may be
    pending on any number of CPUs at once, so a long-lived sender (the
    shootdown protocol) registers one record per machine at first use
    instead of allocating per send. *)
val register_irq : t -> Cpu.irq -> int

(** [send_ipi_id t ~from ~targets ~irq_id] posts the registered irq
    [irq_id] to every CPU in [targets] after per-target delivery latency,
    and returns the cycle cost the {e sender} pays: one ICR write per
    x2APIC cluster touched. The caller, a process on CPU [from], must
    delay by the returned cost. Self-IPIs are rejected.

    Targets are delivered cluster-major: clusters in ascending id, each
    cluster's targets in ascending cpu id. Delivery events for equal times
    fire in that order. Delivery events are pooled engine events carrying
    (target, irq id), and the cluster grouping walks precomputed member
    tables against the set: no per-IPI closure, record, list or hashtable
    allocation, and a sparse multicast on a 1024-CPU machine costs
    O(targets + clusters touched). [targets] is read synchronously; the
    caller may reuse its scratch set on return. *)
val send_ipi_id :
  t -> from:Topology.cpu_id -> targets:Cpuset.t -> irq_id:int -> int

(** Total IPIs delivered (one per target). *)
val ipis_sent : t -> int

(** Total ICR writes (multicast efficiency metric). *)
val icr_writes : t -> int
