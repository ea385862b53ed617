(** The protocol-backend shootout (DESIGN.md §13): the metered madvise
    microbenchmark run once per protocol backend ({!Opts.protocol} — the
    paper protocol with all optimizations and bare, the oracle, the
    cronus-style synchronous broadcast and the charmos-style per-CPU
    queue), and the paper's workloads run once per real backend.

    Each report is built once, here, as its {!Report} tables and its
    BENCH_PERF rows ({!Bench_perf.row}): the bench harness's [shootout]
    and [shootout-workloads] plans return them, and `tlbsim shootout`
    prints the same tables or, as JSON, the same rows through
    {!Bench_perf.to_string}. Cells run through {!Shard} and are read back
    in plan order, so every report is byte-identical at any [~jobs]. *)

(** [Table] is the tables; [Json] is the rows as a BENCH_PERF file of
    mode ["shootout"]. *)
type format = Table | Json

(** Registers the backend cells with the builder and returns a plan-order
    reader of the report (only valid after the cells executed), for
    embedding in a harness that owns its own [Shard.execute]: one table,
    and one ["shootout"] row per backend keyed by its label, carrying
    initiator mean and sd, responder mean, shootdowns, the phase p50s
    (prep / ipi / flush / ack, pooled over distance ranks; [null] when
    there are no samples), and the metered cacheline transfers and their
    cycles. Defaults: 10 PTEs, 200 iterations. *)
val plan_cells :
  Shard.builder ->
  ?pte_count:int ->
  ?iterations:int ->
  unit ->
  (unit -> string * Bench_perf.row list)

(** Run every backend's cell (sharded over [jobs] domains) and render
    the report as [format]. *)
val run : ?pte_count:int -> ?iterations:int -> jobs:int -> format -> string

(** {2 Cross-backend workloads}

    The paper's workload evaluation — fig10 sysbench, fig11 apache and the
    bigmachine-56 multi-tenant churn — run once per real backend (paper /
    oracle / sync-broadcast / queue-spin; paper-baseline is omitted since
    the figures already print baseline columns). Paper opts are
    [Opts.all ~safe:true], value-identical to fig10/fig11's final
    "+batching" stack and the bench bigmachine config, so embedded after
    those plans on shared memos every paper cell is reused. *)

(** The compared backends, label + opts; labels equal
    {!Opts.protocol_label} of the backend's protocol. *)
val workload_backends : unit -> (string * Opts.t) list

(** Registers the per-backend workload cells with the builder (through
    {!Figures}' memoized cells, at {!Figures.fig10_scale} and
    {!Figures.fig11_scale} for [quick]) and returns a plan-order reader of
    the report, for embedding in a harness that owns its own memos and
    [Shard.execute]: three tables (fig10, fig11 and bigmachine-56, the
    backends as columns or rows), and one ["workloads"] row per
    (experiment, backend) keyed e.g. ["wl-fig10/paper"], carrying the
    throughput averaged over the scale's points (fig10 ops/kcyc, fig11
    req/Mcyc) or the bigmachine cycles per shootdown, and the shootdowns
    summed over the cells. A backend's rows are [memoized] when the
    builder owns none of its cells. *)
val workload_cells :
  Shard.builder ->
  sysbench_memo:Sysbench.result Shard.memo ->
  apache_memo:Apache.result Shard.memo ->
  bigmachine_memo:Bigmachine.result Shard.memo ->
  quick:bool ->
  unit ->
  (unit -> string * Bench_perf.row list)

(** Standalone run on fresh memos (the `tlbsim shootout --workloads`
    path), sharded over [jobs] domains; byte-identical at any [~jobs]. *)
val run_workloads : ?quick:bool -> jobs:int -> format -> string
