(** Protocol-independent flush primitives shared by every shootdown backend:
    the generation-tracked flush function, the local full flush, the §3.4
    deferred user-PCID machinery and the phase-metering helpers. The
    {!Protocol} backends compose these; {!Shootdown} re-exports the
    user-facing entry points. *)

(** Printf-style trace line attributed to [cpu]; formats nothing when
    tracing is off. *)
val tracef :
  Machine.t -> cpu:int -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** How the user-PCID half of a flush is handled under PTI. *)
type user_flush = Eager | Defer | Skip

(** {!Machine.phases}[.flush] kind index for a flush result. *)
val kind_of_result : [ `Skipped | `Full | `Ranged ] -> int

(** Record one flush-execution span; callers gate on {!Machine.metering}. *)
val record_flush : Machine.t -> rank:int -> kind:int -> int -> unit

(** Record one initiator-prep span, attributed to the farthest target;
    callers gate on {!Machine.metering}. *)
val record_prep : Machine.t -> from:int -> targets:Cpuset.t -> int -> unit

(** Full local flush of the kernel PCID. Under PTI the user-PCID full flush
    is deferred to return-to-user ([pending_user <- Full_flush]) unless
    [eager_user] — the oracle's never-defer policy — flushes it on the spot. *)
val local_full_flush : Machine.t -> cpu:int -> eager_user:bool -> Percpu.t -> unit

(** The address space [cpu] still owes a flush of [info]: its loaded mm
    when that is [info]'s and [cpu] has not flushed up to [info]'s
    generation, else [None], and then {!flush_tlb_func_impl} skips [info]
    without charging or suspending. *)
val flush_due : Machine.t -> cpu:int -> Flush_info.t -> Mm_struct.t option

(** The responder flush function with Linux's generation bookkeeping: skip
    unless {!flush_due}, full-flush (fast-forwarding) when the
    request is full/over-threshold/multiple generations behind, otherwise
    flush the range. [user] picks the §3.4 user-PCID policy for the ranged
    path; [eager_user] the full-flush policy (see {!local_full_flush}). *)
val flush_tlb_func_impl :
  Machine.t ->
  cpu:int ->
  user:user_flush ->
  eager_user:bool ->
  Flush_info.t ->
  [ `Skipped | `Full | `Ranged ]

(** {!flush_tlb_func_impl} on the initiator itself (never eager on the
    full path), metered as a rank-0 flush. *)
val initiator_flush :
  Machine.t -> from:int -> user:user_flush -> Flush_info.t -> [ `Skipped | `Full | `Ranged ]

(** The backend's shootdown irq id: [handler] registered with the APIC at
    the machine's first shootdown and cached in [Machine.proto_irq_id]. *)
val shootdown_irq : Machine.t -> (Machine.t -> me:int -> Cpu.t -> unit) -> int

(** [Defer] under §3.4 (unless page tables are freed), else [Eager]. *)
val default_user_policy : Machine.t -> Flush_info.t -> user_flush

(** Execute the pending deferred user-PCID flush (§3.4); see
    {!Shootdown.flush_pending_user}. *)
val flush_pending_user : Machine.t -> cpu:int -> has_stack:bool -> unit

(** The return-to-user sequence; see {!Shootdown.return_to_user}. *)
val return_to_user : Machine.t -> cpu:int -> has_stack:bool -> unit
