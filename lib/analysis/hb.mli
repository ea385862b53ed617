(** Vector-clock happens-before analysis of a protocol trace.

    Orders typed {!Sim.Trace} events by per-CPU program order plus the
    protocol's real synchronization edges — IPI delivery (send → handler
    begin), ack observation (ack → the initiator's all-acks-seen), and
    tlb_gen cacheline transfer (bump → any read of a generation at least as
    new) — then judges every stale TLB hit against the invalidation windows
    the checker opened:

    - {e proved in-flight}: the hit happens-before some covering window's
      close (it provably landed while the flush was still pending — the
      hit CPU's later ack feeds the initiator's all-acks-seen), or that
      window never closes; and the hit CPU has not completed a
      return-to-user since handling that window's IPI (the §3.4 contract);
    - {e unordered-latent}: the happens-before order cannot prove the hit
      in-flight, but the checker's wall-clock view called it benign — a
      latent window worth auditing, not a proven race;
    - {e genuine}: no covering window proves the hit in-flight and the
      wall-clock oracle confirms every covering flush had completed — a
      protocol race, reported with the event chain behind the verdict. *)

type verdict = Proved_in_flight | Unordered_latent | Genuine

type finding = {
  f_index : int;  (** record index in the trace *)
  f_time : int;
  f_cpu : int;
  f_mm : int;
  f_vpn : int;
  f_verdict : verdict;
  f_detail : string;  (** staleness reason from the checker *)
  f_chain : (int * Trace.record) list;
      (** the PTE write, window open/close, IPI send/begin/ack, ack
          observation, return-to-user and the hit itself, in trace order *)
}

type report = {
  events : int;
  stale_hits : int;
  proved_in_flight : int;
  unordered_latent : int;
  genuine : int;
  checker_disagreements : int;
      (** hits where the happens-before verdict and the checker's wall-clock
          benign flag differ *)
  findings : finding list;  (** deduplicated by (mm, vpn, cpu, verdict) *)
}

(** Analyze a trace buffer, oldest record first. *)
val analyze_trace : Trace.t -> report

val pp_report : Format.formatter -> report -> unit
