(** Per-CPU kernel state: loaded address space, PCID (ASID) slots with
    per-generation flush tracking, lazy-TLB mode, the SMP call queue, the
    deferred-flush records of §3.4 and §4.2 — and the cachelines they live
    on.

    Cacheline layout is explicit because it is what §3.3 optimizes:

    - baseline (Figure 4a): the lazy-mode flag shares [line_tlb] with other
      TLB state; each outbound call-function-data (CSD) occupies its own
      line, [(csds.(dest)).cfd_line]; the flush_tlb_info lives on the initiator's
      stack line [line_stack_info]; the call queue head is [line_csq].
    - consolidated (Figure 4b): the lazy flag is colocated with the queue
      head (one line answers "lazy? enqueue!") and the flush info is inlined
      into the CSD, eliminating the stack line.

    The comparator backends' per-CPU state (sync-broadcast's done bits,
    queue-spin's rings) is private to {!Proto_sync} and {!Proto_queue}:
    this record holds what Linux keeps per CPU, which the paper's protocol,
    the oracle and the shared flush code use. *)

(** One of the 6 dynamic ASIDs Linux multiplexes per CPU. *)
type asid_slot = {
  mutable slot_mm : int;  (** mm id, or -1 when free *)
  mutable gen_seen : int;  (** mm generation this CPU has flushed up to *)
  mutable last_used : int;  (** for round-robin eviction *)
}

(** Call-function data: one outbound shootdown request to one CPU. An
    initiator keeps one per target as a reusable slot ({!claim_csd}), as
    Linux keeps its [cfd_data] CSDs, so the request fields are rewritten
    per request. *)
type cfd = {
  mutable cfd_seq : int;  (** machine-wide IPI sequence number, for trace pairing *)
  cfd_initiator : int;
  cfd_target : int;  (** responder CPU this CFD is queued on *)
  mutable cfd_info : Flush_info.t;
  mutable cfd_early_ack : bool;  (** responder may ack on handler entry *)
  mutable cfd_acked : bool;
  mutable cfd_executed : bool;  (** flush function completed *)
  mutable cfd_busy : bool;
      (** from its enqueue until the responder has executed and acked it
          (Linux's CSD lock) *)
  mutable cfd_next : cfd;  (** the next request on the call queue, or {!no_cfd} *)
  cfd_line : Cache.line;  (** the slot's CSD line, shared by its records *)
  cfd_info_line : Cache.line option;  (** baseline layout only *)
}

(** Stands in for a drain run's request between requests, the end of a
    call queue and a slot not yet used; never written. *)
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
  mutable csq_head : cfd;
      (** the call queue's oldest request, or {!no_cfd} when it is empty;
          the queue is linked through [cfd_next] *)
  mutable csq_tail : cfd;  (** its newest request, or {!no_cfd} *)
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
  mutable csds : cfd array;
      (** outbound CSD slots by destination, {!no_cfd} until the first
          shootdown to it, which creates the slot and its CSD line
          ({!claim_csd}), in an array grown on demand to the highest
          destination shot down: materializing all n_cpus² lines (or even
          their slots) up front dominated machine-setup allocation at 1024
          CPUs *)
  line_stack_info : Cache.line;
  mutable enqueue_visit : int -> int -> int;
      (** {!Smp.enqueue_work}'s charge-run visit for this initiator, built
          at its first enqueue *)
  scratch_targets : Cpuset.t;
      (** this CPU's shootdown target scratch set, reused across its
          shootdowns (one initiator per CPU at a time, and IRQ handlers
          never select targets) *)
  mutable ack_targets : Cpuset.t;  (** the set {!Smp.wait_for_acks} is waiting on *)
  mutable ack_next : int;
      (** that wait's cursor: the lowest target not yet seen acked, -1
          once all are *)
  mutable ack_work : unit -> bool;  (** that wait's [waiting_work] *)
  mutable ack_ready : unit -> bool;
      (** {!Smp.wait_for_acks}'s poll predicate for this initiator, built
          at its first wait *)
  mutable ack_visit : int -> int -> int;
      (** {!Smp.wait_for_acks}'s ack-observation visit, built with
          [ack_ready] *)
}

val create : Cpu.t -> Cache.registry -> t

(** [claim_csd t ~target ~consolidated ~info ~early_ack] is the record
    of a new request from this CPU to [target], marked busy with its ack
    and executed flags clear and its [cfd_seq] still to be set. It is the slot's own record when the
    responder has released the request it last carried; otherwise (an
    early ack lets the initiator move on while the responder still
    flushes) a fresh record on the same CSD line replaces it in the slot,
    and the busy one finishes untouched. The first claim for [target]
    creates the slot and its line in the registry, with the info line of
    the baseline layout unless [consolidated]. Linux waits for the CSD
    lock here instead; no wait is modelled, so no cost changes. *)
val claim_csd :
  t ->
  target:int ->
  consolidated:bool ->
  info:Flush_info.t ->
  early_ack:bool ->
  cfd

(** The call queue, a FIFO linked through [cfd_next]. A record is on at
    most one queue at a time: {!claim_csd} never hands out a busy one. *)
val csq_is_empty : t -> bool

val csq_push : t -> cfd -> unit

(** The oldest request, unlinked, or {!no_cfd} when the queue is empty. *)
val csq_pop : t -> cfd

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
