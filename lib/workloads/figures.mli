(** {!Shard} plans and memoized cells for the paper's multi-run
    experiments.

    Each workload has one memoized cell constructor. It builds the cell's
    config (opts copied, seed baked in), its memo key and its weight, so
    every plan that runs the same (config, seed) builds the same key, and
    the first plan to register it owns the job while later ones only read
    it. Per-run RNG streams derive from the run's own seed and never from
    mutable state shared across cells. Each constructor registers with
    the builder it is given and returns the cell's getter. *)

(** A microbenchmark cell at [iterations] under the [costs] model
    (default {!Costs.default}): the matrices and ablations A, B and D all
    run through it. *)
val micro_cell :
  ?costs:Costs.t ->
  Shard.builder ->
  memo:Microbench.result Shard.memo ->
  label:string ->
  opts:Opts.t ->
  placement:Microbench.placement ->
  pte_count:int ->
  iterations:int ->
  (unit -> Microbench.result)

type fig10_scale = {
  sys_threads : int list;
  sys_seeds : int64 list;  (** the paper averages several runs per point *)
  sys_ops_per_thread : int;
  sys_file_pages : int;
}

(** The bench harness's full/quick parameters. *)
val fig10_scale : quick:bool -> fig10_scale

(** A sysbench cell at the scale's ops per thread and file pages: fig10,
    its backend columns and ablations C and E all run through it. *)
val sysbench_cell :
  Shard.builder ->
  memo:Sysbench.result Shard.memo ->
  fig10_scale ->
  label:string ->
  opts:Opts.t ->
  threads:int ->
  seed:int64 ->
  (unit -> Sysbench.result)

type fig11_scale = { ap_cores : int list; ap_seeds : int64 list; ap_requests : int }

val fig11_scale : quick:bool -> fig11_scale

(** A bigmachine cell, {!Bigmachine.quick_shape}d when [quick]: the
    bench's scaling rows and the shootout's bigmachine-56 rows. *)
val bigmachine_cell :
  Shard.builder ->
  memo:Bigmachine.result Shard.memo ->
  quick:bool ->
  label:string ->
  opts:Opts.t ->
  n_cpus:int ->
  (unit -> Bigmachine.result)

type micro_matrix = (Microbench.placement * (string * Microbench.result) list) list

(** One Figures-5–8 matrix (all placements × cumulative stacks at one
    (safe, pte_count)) as {!micro_cell}s; the getter rebuilds the matrix
    shape the table printers consume. Figures 5–8 and table 3 request the
    same matrices: the first requester of each (config, seed) owns its
    job, later requesters only read it. *)
val micro_matrix :
  Shard.builder ->
  memo:Microbench.result Shard.memo ->
  iterations:int ->
  safe:bool ->
  pte_count:int ->
  (unit -> micro_matrix)

(** Figures 10 and 11 share one plan builder: per mode, 2 modes × points
    × (baseline + stacks) × seeds cells (memoized through [memo], so
    ablation and workload rows at the same scale reuse them), reduced to
    the two published speedup tables. *)
val fig10_plan : memo:Sysbench.result Shard.memo -> fig10_scale -> Shard.plan

val fig11_plan : memo:Apache.result Shard.memo -> fig11_scale -> Shard.plan

(** One backend's fig10 column for the cross-backend workload comparison
    (DESIGN.md §13): a cell per (thread count, seed) under [opts]; the
    getter yields, in thread order, [(threads, seed-averaged ops/kcyc,
    seed-summed shootdowns)]. The paper backend's opts
    ([Opts.all ~safe:true]) are value-identical to fig10's final
    "+batching" stack, so planned after {!fig10_plan} on the same memo its
    cells are all reused. *)
val fig10_backend_column :
  Shard.builder ->
  memo:Sysbench.result Shard.memo ->
  tag:string ->
  opts:Opts.t ->
  fig10_scale ->
  (unit -> (int * float * int) list)

(** Same for fig11: [(cores, seed-averaged req/Mcyc, shootdowns)]. *)
val fig11_backend_column :
  Shard.builder ->
  memo:Apache.result Shard.memo ->
  tag:string ->
  opts:Opts.t ->
  fig11_scale ->
  (unit -> (int * float * int) list)
