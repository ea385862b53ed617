(** The simulated machine plus kernel-global state: the root object every
    experiment builds first. *)

type stats = {
  mutable shootdowns : int;  (** flush operations that sent IPIs *)
  mutable local_only_flushes : int;  (** flush operations with no targets *)
  mutable ipis_skipped_lazy : int;  (** targets skipped: lazy-TLB mode *)
  mutable ipis_skipped_batched : int;  (** targets skipped: batched syscall *)
  mutable flush_requests_skipped : int;  (** responder skips: gen already seen *)
  mutable full_flush_fallbacks : int;  (** responder gen fast-forward fulls *)
  mutable batched_deferrals : int;  (** flushes deferred by §4.2 batching *)
  mutable cow_flush_avoided : int;  (** local flushes avoided by §4.1 *)
  mutable in_context_deferrals : int;  (** user flushes deferred by §3.4 *)
  mutable faults : int;
  mutable cow_breaks : int;
}

(** Handles into the machine's {!Sim.Metrics} registry for the shootdown
    phase-latency breakdown (DESIGN.md §10). Per-distance arrays are
    indexed by {!Hw.Topology.distance_rank}; [flush] is rank-major over
    (distance rank, flush kind). Every machine exposes the same series
    shape; recording only happens when {!metering} is true. *)
type phases = {
  prep : Metrics.series array;  (** initiator prep, by farthest-target rank *)
  ipi : Metrics.series array;  (** IPI delivery, by sender->target rank *)
  flush : Metrics.series array;  (** flush execution, (rank, kind) rank-major *)
  ack : Metrics.series array;  (** initiator ack wait, by farthest-target rank *)
  line : Metrics.series array;  (** cacheline access cost, by source rank *)
  tlb_drop_full : Metrics.series;  (** entries dropped per full TLB flush *)
  tlb_drop_pcid : Metrics.series;  (** entries dropped per PCID drop *)
}

(** Flush-kind indices for {!phases.flush}: how the responder (or the
    initiator locally) executed the flush. *)
val flush_kind_invlpg : int

val flush_kind_cr3 : int
val flush_kind_deferred : int
val flush_kind_skipped : int

(** [flush_index ~rank ~kind] is the {!phases.flush} index. *)
val flush_index : rank:int -> kind:int -> int

type t = {
  engine : Engine.t;
  topo : Topology.t;
  costs : Costs.t;
  opts : Opts.t;
  registry : Cache.registry;
  frames : Frame_alloc.t;
  trace : Trace.t;
  rng : Rng.t;
  cpus : Cpu.t array;
  apic : Apic.t;
  percpu : Percpu.t array;
  mms : (int, Mm_struct.t) Hashtbl.t;
  all_cpus : Cpuset.t;
      (** every cpu id, built once at create; broadcast paths snapshot it
          into scratch sets. Treat as read-only. *)
  mutable next_mm_id : int;
  mutable next_ipi_seq : int;
  mutable proto_irq_id : int;
      (** Apic registry id of the shootdown irq record every backend
          registers at first use ([-1] = not yet); per machine so IPI
          delivery never allocates an irq record or closure. A machine runs
          one backend for its lifetime ([Opts.protocol] is part of the
          memoization key), so one slot; §4.1's CoW round reuses it. *)
  mutable backend : Protocol.t;
      (** the shootdown backend instance, which owns its own state;
          {!Protocol.unset} until [Shootdown] builds it at first use *)
  checker : Checker.t;
  ipi_mutex : Rwsem.t;
      (** FreeBSD's smp_ipi_mtx: taken (write) around each shootdown by the
          paper protocol when its [serialized] knob is set, and by the
          sync-broadcast backend always, serializing shootdowns
          machine-wide (§3.3's reason for studying the Linux protocol). *)
  stats : stats;
  metrics : Metrics.t;
      (** Phase-latency metric registry; enabled iff the machine was
          created with [~metering:true]. Every unmetered machine shares
          one disabled registry, which records nothing: read it, but never
          merge into it. *)
  phases : phases;
}

(** [create ~opts ()] builds a machine. Defaults: the paper's 2x14x2
    topology, {!Costs.default}, 1 GiB of frames, seed 42, metering off.
    [~metering:true] enables the phase-latency metrics and installs the hw
    observer hooks (Apic/Cache/Tlb). *)
val create :
  ?topo:Topology.t ->
  ?costs:Costs.t ->
  ?frames:int ->
  ?seed:int64 ->
  ?tlb_capacity:int ->
  ?metering:bool ->
  opts:Opts.t ->
  unit ->
  t

val new_mm : t -> Mm_struct.t
val mm_by_id : t -> int -> Mm_struct.t option
val cpu : t -> int -> Cpu.t
val percpu : t -> int -> Percpu.t
val n_cpus : t -> int
val now : t -> int

(** Advance the calling process by [cycles]. *)
val delay : t -> int -> unit

(** Pay for a cacheline access from process context. *)
val charge_read : t -> Cache.line -> by:int -> unit

val charge_write : t -> Cache.line -> by:int -> unit
val charge_atomic : t -> Cache.line -> by:int -> unit

(** Run the engine until idle. *)
val run : t -> unit

(** Engine operations (events + fast-path advances) this machine has
    executed so far. Workload results carry this so harnesses can
    attribute simulation work per run and aggregate at reduce time. *)
val engine_ops : t -> int

(** Fresh machine-wide IPI sequence number (stamped on each CFD so trace
    events can pair sends with acks). *)
val next_ipi_seq : t -> int

(** Is tracing on? Hot call sites must guard event construction with this —
    OCaml builds variant arguments eagerly, so an unguarded
    [trace_event m (Tlb_fill {...})] allocates even when tracing is off. *)
val tracing : t -> bool

(** Append a typed protocol event when tracing is enabled. *)
val trace_event : t -> cpu:int -> Trace.event -> unit

(** Is phase metering on? Guard rank/duration computation with this, same
    discipline as {!tracing}: an unmetered machine pays one load+branch
    per call site and allocates nothing. *)
val metering : t -> bool

(** [distance_rank m a b] = rank of [Topology.distance m.topo a b]. *)
val distance_rank : t -> int -> int -> int

(** Open a checker invalidation window and emit the matching
    {!Sim.Trace.Flush_start} event, so the analyzer sees exactly the
    windows the checker reasons with. *)
val begin_window : t -> cpu:int -> Flush_info.t -> Checker.token

(** Close the window and emit {!Sim.Trace.Flush_done}. *)
val end_window : t -> cpu:int -> mm_id:int -> Checker.token -> unit

(** IPI conservation at quiescence: the IPIs the APIC sent equal the IRQs
    the CPUs handled, and no CPU has an IRQ pending or a drain still
    running. Calls [add_failure]
    once per broken rule. Only meaningful once the engine has drained. *)
val ipi_invariants : t -> (string -> unit) -> unit
