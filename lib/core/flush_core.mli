(** Protocol-independent flush primitives shared by every shootdown backend:
    the generation-tracked flush function, the local full flush, the §3.4
    deferred user-PCID machinery and the phase-metering helpers. The
    {!Protocol} backends compose these; {!Shootdown} re-exports the
    user-facing entry points. *)

(** Printf-style trace line attributed to [cpu]; formats nothing when
    tracing is off. *)
val tracef :
  Machine.t -> cpu:int -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** How the user-PCID half of a ranged flush is handled under PTI. *)
type user_flush = Percpu.user_flush = Eager | Defer | Skip

(** {!Machine.phases}[.flush] kind index for a flush result. *)
val kind_of_result : [ `Skipped | `Full | `Ranged ] -> int

(** Record one flush-execution span; callers gate on {!Machine.metering}. *)
val record_flush : Machine.t -> rank:int -> kind:int -> int -> unit

(** [snapshot_targets m ~from src] copies [src] less [from] into [from]'s
    scratch cpuset and returns it: a shootdown's candidate targets,
    valid until this CPU's next shootdown. *)
val snapshot_targets : Machine.t -> from:int -> Cpuset.t -> Cpuset.t

(** Full local flush of the kernel PCID. Under PTI the user-PCID full flush
    is deferred to return-to-user ([pending_user <- Full_flush]) unless
    [eager_user] — the oracle's never-defer policy — flushes it on the spot. *)
val local_full_flush : Machine.t -> cpu:int -> eager_user:bool -> Percpu.t -> unit

(** {2 The generation-tracked flush}

    Linux's flush function with its generation bookkeeping: skip unless
    the CPU has the request's mm loaded and has not flushed up to its
    generation; otherwise read the mm's generation line, then full-flush
    (fast-forwarding to the latest generation) when the request is
    full/over-threshold/multiple generations behind, else flush the range.
    [user] picks the §3.4 user-PCID policy for the ranged path; under PTI
    a full flush defers its user-PCID half to return-to-user.

    It is written as the steps of a charge run ({!Process.chain_item}), so
    a caller can make it part of a longer run: {!flush_begin} at the
    boundary where the request is reached, then {!flush_step} at each
    later boundary while it returns a cost. A negative cost from either
    means the flush is over at that boundary; its result is then in the
    record's [fl_result] and its start time in [fl_t0]. *)

(** [flush_begin m f ~cpu ~user info] starts a flush of [info] on [cpu]
    with record [f]: the due check, returning the cost of the generation
    read, or [-1] when the request is skipped. *)
val flush_begin :
  Machine.t -> Percpu.flush -> cpu:int -> user:user_flush -> Flush_info.t -> int

(** The next step of [f]'s flush on [cpu]: the cost of what comes next, or
    [-1] once the flush is over. *)
val flush_step : Machine.t -> cpu:int -> Percpu.flush -> int

(** Is [f] between {!flush_begin} and the end of its flush? *)
val flushing : Percpu.flush -> bool

(** The record of [cpu]'s IRQ handlers (one runs at a time per CPU). *)
val irq_flush : Machine.t -> cpu:int -> Percpu.flush

(** The whole flush as one charge run of the calling process. *)
val flush_tlb_func_impl :
  Machine.t -> cpu:int -> user:user_flush -> Flush_info.t -> [ `Skipped | `Full | `Ranged ]

(** {!flush_tlb_func_impl} on the initiator itself, metered as a rank-0
    flush. *)
val initiator_flush :
  Machine.t -> from:int -> user:user_flush -> Flush_info.t -> [ `Skipped | `Full | `Ranged ]

(** The backend's shootdown irq id, registered with the APIC at the
    machine's first shootdown and cached in [Machine.proto_irq_id].
    [backend m] gives the responder as a charge run: [lead cpu], made at
    handler start, returns the cost of its first charge, and [visit] its
    phases, with {!Process.chain_item}'s rules. The handler's step runs
    [lead] at its phase 0 and [visit] at the phases after it, and then,
    when the IRQ interrupted user mode, the return-to-user tail of
    {!flush_pending_user} as more steps of the same handler. *)
val shootdown_irq : Machine.t -> (Machine.t -> (int -> int) * (int -> int -> int)) -> int

(** [Defer] under §3.4 (unless page tables are freed), else [Eager]. *)
val default_user_policy : Machine.t -> Flush_info.t -> user_flush

(** Execute the pending deferred user-PCID flush (§3.4); see
    {!Shootdown.flush_pending_user}. *)
val flush_pending_user : Machine.t -> cpu:int -> has_stack:bool -> unit

(** The return-to-user sequence; see {!Shootdown.return_to_user}. *)
val return_to_user : Machine.t -> cpu:int -> has_stack:bool -> unit
