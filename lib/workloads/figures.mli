(** {!Shard} plans for the paper's multi-run experiments.

    Builders flatten an experiment's (config, seed) matrix into cells at
    plan time and return a reduce that reassembles the published tables
    from the cell slots. Every cell copies its opts and bakes its seed
    into the config, so per-run RNG streams derive from the run's own seed
    and never from mutable state shared across cells. *)

(** Per-run cost estimates in engine-op units (drive LPT ordering). *)
val micro_weight : iterations:int -> pte_count:int -> float

val sysbench_weight : threads:int -> ops_per_thread:int -> float

type micro_matrix = (Microbench.placement * (string * Microbench.result) list) list

(** Cells for one Figures-5–8 matrix (all placements × cumulative stacks at
    one (safe, pte_count)); the getter rebuilds the matrix shape the table
    printers consume. Cells are memoized through [memo]: the first
    requester of each (config, seed) owns its job (figs 5–8 normally;
    table 3 when it runs alone), later requesters get only the getter.
    Also returns how many cells were reused rather than owned. *)
val micro_matrix_cells :
  memo:Microbench.result Shard.memo ->
  iterations:int ->
  warmup:int ->
  safe:bool ->
  pte_count:int ->
  Shard.job list * (unit -> micro_matrix) * int

type fig10_scale = {
  sys_threads : int list;
  sys_seeds : int64 list;  (** the paper averages several runs per point *)
  sys_ops_per_thread : int;
  sys_file_pages : int;
}

(** The bench harness's full/quick parameters. *)
val fig10_scale : quick:bool -> fig10_scale

(** Figure 10 as a plan: 2 modes × threads × (baseline + stacks) × seeds
    sim-run cells (memoized through [memo], so ablation rows at the same
    scale reuse them), reduced to the two published speedup tables. *)
val fig10_plan : memo:Sysbench.result Shard.memo -> fig10_scale -> Shard.plan

type fig11_scale = { ap_cores : int list; ap_seeds : int64 list; ap_requests : int }

val fig11_scale : quick:bool -> fig11_scale
val fig11_plan : memo:Apache.result Shard.memo -> fig11_scale -> Shard.plan

(** One backend's fig10 column for the cross-backend workload comparison
    (DESIGN.md §13): a memoized cell per (thread count, seed) under
    [opts]; the getter yields, in thread order, [(threads, seed-averaged
    ops/kcyc, seed-summed shootdowns)]. The paper backend's opts
    ([Opts.all ~safe:true]) are value-identical to fig10's final
    "+batching" stack, so planned after {!fig10_plan} on the same memo
    its cells are all reused — the returned reuse count says how many. *)
val fig10_backend_cells :
  memo:Sysbench.result Shard.memo ->
  tag:string ->
  opts:Opts.t ->
  fig10_scale ->
  Shard.job list * (unit -> (int * float * int) list) * int

(** Same for fig11: [(cores, seed-averaged req/Mcyc, shootdowns)]. *)
val fig11_backend_cells :
  memo:Apache.result Shard.memo ->
  tag:string ->
  opts:Opts.t ->
  fig11_scale ->
  Shard.job list * (unit -> (int * float * int) list) * int
