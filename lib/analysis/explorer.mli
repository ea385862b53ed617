(** Systematic interleaving exploration of shootdown scenarios.

    The simulation engine's chooser hook turns near-simultaneous pending
    events into scheduling decision points. A run is identified by its
    decision prefix (candidate index taken at each decision; past the
    prefix, the deterministic default order). Exploring a scenario runs the
    empty prefix and then depth-first re-runs every untried alternative at every
    decision encountered — stateless-model-checking style, replaying
    instead of checkpointing because runs are deterministic given their
    prefix.

    Every run checks protocol invariants at each decision point (no
    deferred user flush while user code runs; [nmi_uaccess_okay] implies no
    stale uncovered translation in the kernel-PCID view an NMI would use)
    and at quiescence (checker clean, no
    open windows, queues drained, no surviving deferrals), and feeds the
    trace through {!Hb.analyze_trace}; failures carry the prefix reproducing
    them. *)

type config = {
  max_choice_points : int;  (** decisions beyond this depth are not branched *)
  max_branch : int;  (** alternatives tried per decision (>= candidate count
                         for exhaustive exploration) *)
  max_runs : int;
  horizon : int;  (** engine concurrency horizon in cycles *)
  trace_cap : int;  (** per-run [Trace.set_max_records] cap *)
}

type failure = { fail_prefix : int list; fail_what : string }

type result = {
  runs : int;
  max_depth : int;
  failures : failure list;  (** deduplicated by message *)
  stale_hits : int;  (** summed over all runs *)
  proved_in_flight : int;
  unordered_latent : int;
  genuine : int;
}

(** [explore_set ?config ~jobs builds] explores each scenario in [builds]
    (fresh machine per run, processes spawned, engine not yet run) as an
    independent task on a [jobs]-domain pool ({!Sim.Domain_pool}). Results
    come back in the order of [builds] regardless of schedule, and each
    exploration is single-domain internally, so the output is identical
    at any [jobs]. [config] defaults to 12 choice points, 2-way branching,
    64 runs and a 30-cycle horizon. *)
val explore_set : ?config:config -> jobs:int -> (unit -> Machine.t) list -> result list

val pp_result : Format.formatter -> result -> unit
