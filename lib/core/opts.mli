(** Simulator configuration: the mitigation mode, the shootdown-protocol
    backend with the knobs only that backend reads, and an optional injected
    fault. Immutable: derive variants with [{ t with ... }] or a {!switch}.

    [safe] selects "safe mode" (PTI + Spectre/Meltdown mitigations, Linux's
    default) versus "unsafe mode" (mitigations off); under [safe], every
    address space has separate kernel and user PCIDs and user PTEs must be
    flushed too. Of the paper's six Table-1 techniques, five change the
    paper protocol only and live in {!paper}; in-context flushing (§3.4) is
    the user-PCID deferral policy every backend's responder flush shares,
    so it sits in {!t}.

    The oracle alone ignores [in_context_flush], [full_flush_threshold] and
    [fault]: it is the reference every other backend is diffed against, so
    it always flushes the whole TLB at once and defers nothing. *)

(** The knobs only the paper protocol reads. Shared kernel code reads them
    through {!knobs}, which matches [Paper p]; every other backend behaves as
    if all were off. *)
type paper = {
  concurrent_flush : bool;  (** §3.1 flush local TLB while waiting *)
  early_ack : bool;  (** §3.2 ack on handler entry *)
  cacheline_consolidation : bool;  (** §3.3 merged kernel cachelines *)
  cow_avoid_flush : bool;  (** §4.1 dummy write instead of INVLPG *)
  userspace_batching : bool;  (** §4.2 batch flushes in msync etc. *)
  batch_slots : int;  (** deferred flush_tlb_info entries, paper: 4 *)
  serialized : bool;
      (** FreeBSD-style comparator (paper §2.1/§3.3): every shootdown takes
          the global smp_ipi_mtx, so only one is in flight machine-wide;
          {!freebsd} pairs it with a 4096-entry full-flush threshold. Safe
          but serializing. *)
}

(** Shootdown-protocol backend selector. Each constructor names one
    {!Protocol} backend:
    - [Paper]: the paper's optimized Linux protocol — targeted IPIs,
      generation bookkeeping, and the Table-1 optimizations its {!paper}
      payload switches on.
    - [Oracle]: the conservative differential-testing reference — every PTE
      change one synchronous whole-TLB broadcast to every other CPU, no
      deferral/batching/early-ack/filtering.
    - [Sync_broadcast]: cronus-style single-global-lock synchronous full
      broadcast — one machine-wide status table, the initiator
      self-invalidates, then spins until every other CPU has flushed.
    - [Queue_spin]: charmos-style per-CPU bounded ring-buffer queue with
      initial-spin/backoff/resend retry and flush-all collapsing when a
      target's ring overflows. *)
type protocol = Paper of paper | Oracle | Sync_broadcast | Queue_spin

(** Stable lowercase label ("paper", "oracle", "sync-broadcast",
    "queue-spin") used in CLI flags, metrics rows and reports. *)
val protocol_label : protocol -> string

(** Deliberately broken behaviour, for demonstrating the checkers:
    - [Lazy_strawman]: LATR-style strawman — flush locally, skip the
      shootdown IPIs entirely and close the window as if done. Unsafe by
      design; lets the {!Checker} demonstrate the correctness argument of
      paper §2.3.2.
    - [Skip_deferred_flush]: drop deferred user flushes (§3.4) at kernel
      exit instead of executing them. The happens-before analyzer and the
      fuzzer must flag the resulting stale user-PCID hits. *)
type fault = Lazy_strawman | Skip_deferred_flush

type t = {
  safe : bool;  (** PTI + mitigations on *)
  in_context_flush : bool;  (** §3.4 defer user flushes to kernel exit *)
  full_flush_threshold : int;  (** Linux's 33-entry ceiling *)
  spec_pte_recache_p : float;
      (** probability that, between a CoW fault and its PTE update, a
          speculative page walk re-caches the stale PTE (paper §4.1's
          motivation for the explicit write) *)
  protocol : protocol;
      (** Which shootdown backend performs remote invalidation. All
          protocol-specific behaviour in {!Shootdown} flows through the
          {!Protocol} interface selected by this field. *)
  fault : fault option;
}

(** Every paper knob off, 4 batch slots: stock Linux 5.2.8. *)
val paper_baseline : paper

(** The paper knobs in force: the payload under [Paper], {!paper_baseline}
    (everything off) under any other backend. Allocates nothing, so hot
    paths may call it per shootdown. *)
val knobs : t -> paper

(** Every backend, in fixed shootout/report order; the paper one carries
    {!paper_baseline}. *)
val all_protocols : protocol list

(** Everything off: stock Linux 5.2.8 behaviour in the given mode. *)
val baseline : safe:bool -> t

(** The four general techniques of §3 enabled (in-context only when [safe]). *)
val all_general : safe:bool -> t

(** All six optimizations. *)
val all : safe:bool -> t

(** FreeBSD-flavoured baseline: serialized shootdowns (smp_ipi_mtx) and the
    4096-entry full-flush ceiling (§2.1). *)
val freebsd : safe:bool -> t

(** Baseline with [protocol = Oracle]: the trivially-correct
    synchronous-broadcast reference the differential fuzzer diffs against. *)
val oracle : safe:bool -> t

(** Baseline with the given backend selected and every option off. *)
val with_protocol : protocol -> safe:bool -> t

(** [t] with its paper knobs mapped through [f]. Raises [Invalid_argument]
    when the backend is not [Paper]. *)
val map_paper : (paper -> paper) -> t -> t

(** {1 Named switches}

    One table maps option names to setters; the [tlbsim --opts] parser, the
    [analyze --explore] sweep, the fuzzer's combo bits and the single-option
    ablation all read it. *)

type switch = {
  name : string;  (** as spelled on the command line *)
  paper_only : bool;  (** sets a {!paper} knob *)
  set : t -> bool -> t;
      (** Raises [Invalid_argument], naming the switch, when [paper_only] and
          the config's backend is not [Paper]. *)
}

(** The §3 techniques: concurrent, early-ack, cacheline, in-context. *)
val general : switch list

(** All six Table-1 techniques: {!general}, then cow and batching. Row [i]
    is bit [i] of the fuzzer's 6-bit combo. *)
val techniques : switch list

(** Every [--opts] name: {!techniques}, then unsafe-lazy (the
    [Lazy_strawman] fault) and freebsd ([serialized] plus the 4096-entry
    ceiling). *)
val switches : switch list

(** Does [protocol] act on the switch? Paper honours all; sync-broadcast and
    queue-spin only those that are not [paper_only]; the oracle none. *)
val honours : protocol -> switch -> bool

(** Cumulative stacks in paper order:
    baseline, +concurrent, +early ack, +cacheline, (+in-context when [safe]).
    Each pair is (label, opts). *)
val cumulative_general : safe:bool -> (string * t) list

(** Cumulative stacks for the workload figures (adds batching last):
    concurrent, +early ack, +cacheline, (+in-context when safe), +batching. *)
val cumulative_workload : safe:bool -> (string * t) list

(** Canonical value key over every field: equal keys iff behaviourally
    identical opts. Used by the bench harness to memoize identical
    (config, seed) cells across experiments. *)
val key : t -> string

val pp : Format.formatter -> t -> unit
