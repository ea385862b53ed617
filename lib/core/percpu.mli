(** Per-CPU kernel state: loaded address space, PCID (ASID) slots with
    per-generation flush tracking, lazy-TLB mode, the SMP call queue, the
    deferred-flush records of §3.4 and §4.2 — and the cachelines they live
    on.

    Cacheline layout is explicit because it is what §3.3 optimizes:

    - baseline (Figure 4a): the lazy-mode flag shares [line_tlb] with other
      TLB state; each outbound call-function-data (CSD) occupies its own
      line [csd_lines.(dest)]; the flush_tlb_info lives on the initiator's
      stack line [line_stack_info]; the call queue head is [line_csq].
    - consolidated (Figure 4b): the lazy flag is colocated with the queue
      head (one line answers "lazy? enqueue!") and the flush info is inlined
      into the CSD, eliminating the stack line. *)

(** One of the 6 dynamic ASIDs Linux multiplexes per CPU. *)
type asid_slot = {
  mutable slot_mm : int;  (** mm id, or -1 when free *)
  mutable gen_seen : int;  (** mm generation this CPU has flushed up to *)
  mutable last_used : int;  (** for round-robin eviction *)
}

(** Call-function data: one outbound shootdown request to one CPU. *)
type cfd = {
  cfd_seq : int;  (** machine-wide IPI sequence number, for trace pairing *)
  cfd_initiator : int;
  cfd_target : int;  (** responder CPU this CFD was queued on *)
  cfd_info : Flush_info.t;
  cfd_early_ack : bool;  (** responder may ack on handler entry *)
  mutable cfd_acked : bool;
  mutable cfd_executed : bool;  (** flush function completed *)
  cfd_line : Cache.line;
  cfd_info_line : Cache.line option;  (** baseline layout only *)
}

(** Stands in for a drain run's request between requests. *)
val no_cfd : cfd

(** Deferred user-address-space flush state (in-context flushing, §3.4). *)
type pending_user = No_flush | Ranged of Flush_info.t | Full_flush

(** [no_pending_user p] is [p = No_flush] without polymorphic equality. *)
val no_pending_user : pending_user -> bool

(** How the user-PCID half of a ranged flush is handled under PTI: on the
    spot, deferred to return-to-user (§3.4), or left to the caller. *)
type user_flush = Eager | Defer | Skip

(** A flush of one request on one CPU between the boundaries of its charge
    run: the state {!Flush_core}'s steps keep, so that a run allocates
    nothing per request. *)
type flush = {
  mutable fl_info : Flush_info.t;
  mutable fl_user : user_flush;
  mutable fl_mm : Mm_struct.t option;  (** the loaded mm's own [Some] cell *)
  mutable fl_slot : asid_slot;  (** the ASID slot whose generation moves *)
  mutable fl_latest : int;  (** the mm generation read at the decision *)
  mutable fl_asid : int;  (** the slot whose PCIDs a ranged flush walks *)
  mutable fl_step : int;  (** the next step; see {!Flush_core.flush_step} *)
  mutable fl_i : int;  (** next INVLPG/INVPCID item of a ranged flush *)
  mutable fl_n : int;  (** items of a ranged flush *)
  mutable fl_result : [ `Skipped | `Full | `Ranged ];
  mutable fl_t0 : int;  (** when the flush began, for metering *)
  mutable fl_busy : bool;  (** a process-context run holds the record *)
  mutable fl_visit : int -> int -> int;
      (** the record's steps as a charge-run visit, built at first use *)
}

(** A fresh flush record. *)
val new_flush : unit -> flush

(** The visit of a record whose [fl_visit] is not built yet. *)
val no_visit : int -> int -> int

(** Stands in for a CPU's flush records until its first flush. *)
val no_flush : flush

(** The return-to-user tail {!Flush_core.shootdown_irq} appends to a
    CPU's IRQ handler: one handler runs per CPU at a time, so one record
    serves them all. *)
type irq_run = {
  mutable tail : int;
      (** the handler phase where the tail began, or -1 while the
          backend's part runs *)
  mutable tail_info : Flush_info.t;  (** the tail's ranged deferred flush *)
  mutable tail_pcid : int;  (** the user PCID it invalidates *)
  mutable tail_t0 : int;  (** when the tail began, for metering *)
}

(** A record for a CPU's first shootdown IRQ. *)
val new_irq_run : unit -> irq_run

(** Stands in for a CPU's [irq_run] until its first; never written. *)
val no_irq_run : irq_run

(** [Queue_spin] ring capacity; pushing past it sets [q_flush_all]. *)
val queue_slots : int

(** [Queue_spin]'s per-CPU state: the ring of posted invalidations and its
    line, the responder's place in its drain run, and the initiator's ack
    wait. *)
type queue_state = {
  q_mm : int array;  (** the ring: posted mm ids ... *)
  q_vpn : int array;  (** ... posted vpns ... *)
  q_from : int array;  (** ... and posting initiators *)
  mutable q_head : int;  (** consumer cursor (monotone; slot = mod size) *)
  mutable q_tail : int;  (** producer cursor *)
  mutable q_flush_all : bool;  (** ring overflowed; drain as whole-TLB flush *)
  mutable q_target_gen : int;  (** newest queue generation posted to us *)
  mutable q_ack_gen : int;  (** queue generation drained up to *)
  line_queue : Cache.line;  (** the ring's shared cache line *)
  mutable q_step : int;  (** what the responder's run does next *)
  mutable q_base : int;  (** the run phase the entry in hand began at *)
  mutable q_mm_id : int;  (** the entry in hand: its mm ... *)
  mutable q_at_vpn : int;  (** ... its vpn ... *)
  mutable q_by : int;  (** ... and its posting initiator *)
  mutable q_hit : bool;  (** the ASID slot in hand caches the entry's mm *)
  mutable q_t0 : int;  (** when the entry or flush-all in hand began *)
  scratch_resend : Cpuset.t;
      (** retry-ladder scratch: the un-acked subset of the initiator's
          [scratch_targets], rebuilt per resend *)
  mutable q_wait_gen : int;
      (** the queue generation every target of this CPU's shootdown must
          drain to *)
  mutable q_ready : unit -> bool;
      (** the ack wait's poll predicate, built at the first wait *)
}

(** A fresh queue state with an empty ring and its line in [registry]; its
    [q_ready] is {!no_ready}. *)
val new_queue_state : Cache.registry -> queue_state

(** Stands in for a CPU's [q_state] until its first use: an empty ring,
    nothing posted or pending. Never written. *)
val no_queue_state : queue_state

(** Stands in for [q_ready] until it is built. *)
val no_ready : unit -> bool

type t = {
  cpu : Cpu.t;
  registry : Cache.registry;  (** for lazily creating CSD lines *)
  asids : asid_slot array;
  mutable curr_asid : int;
  mutable loaded_mm : Mm_struct.t option;
  mutable lazy_mode : bool;
  mutable pending_user : pending_user;
  mutable inflight_flush : bool;
      (** a shootdown was acknowledged (early ack) but its flush has not
          completed; NMI handlers must not touch user memory (§3.2) *)
  mutable batched_mode : bool;  (** inside a batching syscall (§4.2) *)
  mutable batch : (Flush_info.t * Checker.token) list;
      (** deferred infos (newest first) with their open checker windows *)
  mutable batch_overflowed : bool;
  csq : cfd Queue.t;
  mutable csd_cur : cfd;
      (** the request this CPU's drain run ({!Smp.drain_queue}) is on, or
          {!no_cfd} between requests *)
  mutable csd_base : int;  (** the drain run's phase at [csd_cur]'s CSD read *)
  mutable csd_acking : bool;  (** an ack write of [csd_cur] is in flight *)
  mutable csd_queued : int;  (** CFDs queued on this CPU so far *)
  mutable csd_released : int;
      (** CFDs this CPU has executed and acked: equal to [csd_queued] at
          quiescence *)
  mutable irq_flush : flush;
      (** the flush of this CPU's IRQ handlers, which run one at a time;
          {!no_flush} until the first *)
  mutable task_flush : flush;
      (** the flush of a process on this CPU; {!no_flush} until the first *)
  mutable irq_run : irq_run;
      (** the return-to-user tail of this CPU's shootdown IRQ;
          {!no_irq_run} until the first *)
  line_tlb : Cache.line;
  line_csq : Cache.line;
  mutable csd_lines : Cache.line option array;
      (** outbound CSD lines by destination, created on first use by
          {!csd_line}, in an array grown on demand to the highest
          destination shot down: materializing all n_cpus² of them (or even
          their slots) up front dominated machine-setup allocation at 1024
          CPUs *)
  line_stack_info : Cache.line;
  scratch_targets : Cpuset.t;
      (** this CPU's shootdown target scratch set, reused across its
          shootdowns (one initiator per CPU at a time, and IRQ handlers
          never select targets) *)
  mutable sync_done : bool;
      (** [Sync_broadcast] status-table entry: true once this CPU has applied
          the posted flush (initiator clears it before broadcasting) *)
  mutable q_state : queue_state;
      (** [Queue_spin]'s handler and ack-wait state; {!no_queue_state}
          until the CPU first uses the backend *)
}

val create : Cpu.t -> Cache.registry -> t

(** The CSD line this CPU uses to shoot down [target], created in the
    registry on first use. *)
val csd_line : t -> target:int -> Cache.line

(** ASID slots per CPU (6, as in Linux's [TLB_NR_DYN_ASIDS]). *)
val n_asids : int
[@@tlblint.allow "R5 state accessor: tests size ASID-recycling runs by it"]

(** Hardware PCID values for a slot (user PCID has bit 11 set, like Linux).
    In unsafe mode (no PTI) only the kernel PCID is used. *)
val kernel_pcid : int -> int

val user_pcid : int -> int

(** Currently loaded kernel PCID. *)
val current_kernel_pcid : t -> int

(** Slot to (re)use for [mm_id]: an existing slot, a free one, or the least
    recently used (in which case its stale contents must be flushed by the
    caller). Returns [(slot, needs_flush)]. *)
val choose_slot : t -> mm_id:int -> now:int -> int * bool

(** Record the merged deferred user flush; collapses to [Full_flush] past
    [threshold] entries. *)
val defer_user_flush : t -> Flush_info.t -> threshold:int -> unit

val take_pending_user : t -> pending_user
