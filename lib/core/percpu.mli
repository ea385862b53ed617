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

(** Deferred user-address-space flush state (in-context flushing, §3.4). *)
type pending_user = No_flush | Ranged of Flush_info.t | Full_flush

(** [no_pending_user p] is [p = No_flush] without polymorphic equality. *)
val no_pending_user : pending_user -> bool

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
  scratch_resend : Cpuset.t;
      (** [Queue_spin] retry-ladder scratch: the un-acked subset of
          [scratch_targets], rebuilt per resend *)
  mutable sync_done : bool;
      (** [Sync_broadcast] status-table entry: true once this CPU has applied
          the posted flush (initiator clears it before broadcasting) *)
  q_mm : int array;  (** [Queue_spin] ring: posted mm ids *)
  q_vpn : int array;  (** posted vpns *)
  q_gen : int array;  (** mm tlb_gen each posted entry proves flushed *)
  q_from : int array;  (** posting initiator, for distance attribution *)
  mutable q_head : int;  (** consumer cursor (monotone; slot = mod size) *)
  mutable q_tail : int;  (** producer cursor *)
  mutable q_flush_all : bool;  (** ring overflowed; drain as whole-TLB flush *)
  mutable q_target_gen : int;  (** newest queue generation posted to us *)
  mutable q_ack_gen : int;  (** queue generation drained up to *)
  line_queue : Cache.line;  (** the ring's shared cache line *)
}

val create : Cpu.t -> Cache.registry -> t

(** The CSD line this CPU uses to shoot down [target], created in the
    registry on first use. *)
val csd_line : t -> target:int -> Cache.line

(** ASID slots per CPU (6, as in Linux's [TLB_NR_DYN_ASIDS]). *)
val n_asids : int
[@@tlblint.allow "R5 state accessor: tests size ASID-recycling runs by it"]

(** [Queue_spin] ring capacity; pushing past it sets [q_flush_all]. *)
val queue_slots : int

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
