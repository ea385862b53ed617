(** Fork-join execution of independent tasks over OCaml 5 domains.

    Built for the bench harness: sim-run tasks are self-contained (each
    builds its own {!Engine.t} and machines), so running them on separate
    domains is safe as long as they share no mutable state. *)

(** [run ~jobs tasks] runs every task and returns their results in task
    order. With [jobs <= 1] (or fewer than two tasks) the tasks run inline
    on the calling domain, strictly in order, with no domains spawned — so
    a [jobs:1] run is indistinguishable from a plain sequential loop. With
    [jobs > 1], up to [jobs] domains (including the caller) pull tasks from
    a shared atomic counter; task [i]'s result lands in slot [i] regardless
    of which domain ran it, so index-order reduces are deterministic by
    construction under any schedule.

    [weights], when given (same length as [tasks]), sets the parallel
    claim order to descending weight — longest-processing-time-first list
    scheduling, which bounds the makespan at 4/3 of optimal. Equal weights
    keep submission order. Claim order never affects results, only
    wall-clock.

    [tune_gc] (default false) applies bench-tuned GC parameters (a 4M-word
    minor heap, space_overhead 200) inside each *spawned* worker domain;
    the calling domain's parameters are never touched. GC tuning cannot
    change simulated results, only wall-clock and memory.

    If a task raises, the parallel runner still completes the remaining
    tasks, then re-raises the first (lowest-index) exception with its
    original backtrace. *)
val run :
  jobs:int ->
  ?weights:float array ->
  ?tune_gc:bool ->
  (unit -> 'a) array ->
  'a array

(** What the runtime recommends for [jobs] on this machine
    ({!Domain.recommended_domain_count}). *)
val default_jobs : unit -> int

(** Apply the bench-tuned GC parameters (see [tune_gc]) to the calling
    domain — what the harness does on its main domain so [-j 1] runs get
    the same allocation-storm relief as pool workers. *)
val tune_current_domain : unit -> unit
