(** Sub-experiment sharding: plan / execute / reduce for the bench harness.

    An experiment is flattened into self-contained sim-run {e cells} at
    plan time, each registered with the plan's {!builder}; every plan's
    cells execute on one shared {!Sim.Domain_pool}
    in longest-task-first order; reduction reads cell slots in plan order,
    and each plan's reduce returns its tables and BENCH_PERF rows as data.
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

(** One experiment: the cells it owns, the count it reused, and its
    reduce. Built only through {!plan}. *)
type plan

(** A plan under construction. Cells register with it in order; it keeps
    the jobs the plan owns, in registration order, and counts the memo
    cells it reads but does not own. *)
type builder

(** [plan name build] runs [build] on a fresh builder, so every cell
    [build] registers belongs to this plan, and takes the reduce it
    returns. The reduce runs after every cell has executed, in plan
    order on the calling domain: it reads its cells and returns the
    experiment's tables (rendered with {!Report}) and its BENCH_PERF rows
    (most return none). A plan that reads cells an earlier plan owns
    still pays only for its own; one whose cells are all reused runs none
    and perf marks it [memoized]. *)
val plan : string -> (builder -> unit -> string * Bench_perf.row list) -> plan

(** [cell b ?label ?ops ~weight f] registers one self-contained sim run
    with [b] and returns the getter the reduce phase calls; the getter
    raises if read before execution. [ops] extracts the run's engine-op
    count from its result; omit it for runs that drive no engine (the
    measure reports n/a). [weight] is the estimated cost in engine-op
    units — only the descending order of weights matters (LPT
    scheduling). [f] must not print: tables belong in the reduce, which
    returns them in plan order. *)
val cell :
  builder ->
  ?label:string ->
  ?ops:('a -> int) ->
  weight:float ->
  (unit -> 'a) ->
  (unit -> 'a)

(** Cross-experiment cell memoization: identical (config, seed) cells run
    once, whatever experiments consume them. *)
type 'a memo

val create_memo : unit -> 'a memo

(** [memo_cell b memo ~key ...] is {!cell}, deduplicated on [key] (a
    workload [config_key]). The first registration of a key registers the
    cell with [b], which owns it. Later registrations return the same
    getter and count as reused in their builder: no job, nothing to pay
    for. Plan construction is sequential, so ownership is deterministic
    (first builder in plan order). *)
val memo_cell :
  builder ->
  'a memo ->
  key:string ->
  ?label:string ->
  ?ops:('a -> int) ->
  weight:float ->
  (unit -> 'a) ->
  (unit -> 'a)

(** How many cells [b] owns so far: a caller that compares the count
    around a group of {!memo_cell} calls learns whether the group owns
    any of its cells. *)
val owned : builder -> int

type outcome = {
  out_name : string;
  output : string;  (** the tables the plan's reduce returned *)
  out_rows : Bench_perf.row list;  (** what the plan's reduce returned *)
  out_measure : measure;  (** cells summed + reduce wall *)
  out_reused : int;  (** the plan's [reused] count, for perf reporting *)
}

(** [execute ~jobs plans] runs every plan's cells on the shared pool
    ([jobs] domains, LPT order, per-worker GC tuning) and reduces in plan
    order. [progress] prints one per-cell elapsed line to stderr as cells
    finish (unordered across domains; stdout stays schedule-independent). *)
val execute : ?progress:bool -> jobs:int -> plan list -> outcome list

(** [run ~jobs build] is a standalone sweep, not part of a bench run:
    it registers [build]'s cells with a fresh builder, executes them on
    [jobs] domains, then calls the reader [build] returned. *)
val run : jobs:int -> (builder -> unit -> 'a) -> 'a
