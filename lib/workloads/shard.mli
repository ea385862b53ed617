(** Sub-experiment sharding: plan / execute / reduce for the bench harness.

    An experiment is flattened into self-contained sim-run {e cells} at
    plan time; every plan's cells execute on one shared {!Sim.Domain_pool}
    in longest-task-first order; reduction reads cell slots in plan order.
    Because a cell's value lands in its own slot whatever the schedule,
    reduced output is byte-identical for every [-j] by construction. *)

(** Per-cell (and, aggregated, per-experiment) cost accounting. *)
type measure = {
  wall_s : float;  (** summed run wall — CPU-seconds under [-j N] *)
  max_wall_s : float;  (** slowest single run: the shard-level critical path *)
  engine_ops : int option;
      (** engine events + advances, from the run's own engines via the
          cell's extractor; [None] marks "no engine-driven run" (reported
          as an explicit n/a, never a misleading 0) *)
  suspensions : int;
      (** process suspensions during the runs: exact, since a cell runs on
          one domain and {!Sim.Engine.suspensions} is domain-local *)
  minor_words : float;  (** exact: [Gc.minor_words] is domain-local *)
  major_words : float;
  promoted_words : float;
  runs : int;
}

type job

type plan = {
  name : string;
  jobs : job list;
      (** cells this experiment owns — shared cells (e.g. the micro
          matrices figs 5–8 and table 3 both consume) belong to exactly
          one plan, so perf attribution never double-counts *)
  reused : int;
      (** cells this experiment reads from a {!memo} but does not own:
          they were registered first by an earlier plan. Perf mode marks
          such experiments [memoized] so the gate knows their measures
          cover only part of what they print. *)
  reduce : unit -> Bench_perf.row list;
      (** prints the tables via {!Report} and returns the experiment's
          own BENCH_PERF rows (most return none); runs after every cell *)
}

(** [cell ?label ?ops ~weight f] wraps one self-contained sim run.
    Returns the job (to attach to the owning plan) and a getter the
    reduce phase calls; the getter raises if read before execution.
    [ops] extracts the run's engine-op count from its result; omit it for
    runs that drive no engine (the measure reports n/a). [weight] is the
    estimated cost in engine-op units — only the descending order of
    weights matters (LPT scheduling). [f] must not print: tables belong
    in reduce, where output is captured deterministically. *)
val cell :
  ?label:string -> ?ops:('a -> int) -> weight:float -> (unit -> 'a) -> job * (unit -> 'a)

(** Cross-experiment cell memoization: identical (config, seed) cells run
    once, whatever experiments consume them. *)
type 'a memo

val create_memo : unit -> 'a memo

(** [memo_cell memo ~key ...] is {!cell}, deduplicated on [key] (a
    workload [config_key]). The first registration of a key builds the
    cell and returns [([job], get, true)] — the caller owns the job.
    Later registrations return [([], get, false)]: the same getter, no
    job, nothing to pay for. Plan construction is sequential, so
    ownership is deterministic (first builder in plan order). *)
val memo_cell :
  'a memo ->
  key:string ->
  ?label:string ->
  ?ops:('a -> int) ->
  weight:float ->
  (unit -> 'a) ->
  job list * (unit -> 'a) * bool

type outcome = {
  out_name : string;
  output : string;  (** the experiment's captured tables *)
  out_rows : Bench_perf.row list;  (** what the plan's reduce returned *)
  out_measure : measure;  (** cells summed + reduce wall *)
  out_reused : int;  (** the plan's [reused] count, for perf reporting *)
}

(** [execute ~jobs plans] runs every plan's cells on the shared pool
    ([jobs] domains, LPT order, per-worker GC tuning) and reduces in plan
    order. [progress] prints one per-cell elapsed line to stderr as cells
    finish (unordered across domains; stdout stays schedule-independent).
    Also returns the pool's summed per-domain GC deltas. *)
val execute :
  ?progress:bool -> jobs:int -> plan list -> outcome list * Domain_pool.gc_totals

(** [run_cells ~jobs cells] executes standalone cells — a sweep that is
    not part of a bench plan — on [jobs] domains; read the results back
    through the cells' getters. *)
val run_cells : jobs:int -> job list -> unit
