(** The `tlbsim shootout` report: the metered madvise microbenchmark run
    once per protocol backend ({!Opts.protocol} — the paper protocol with
    all optimizations and bare, the oracle, the cronus-style synchronous
    broadcast and the charmos-style per-CPU queue), reduced to one
    comparison row each: initiator/responder latency, shootdown count,
    phase-latency p50s (DESIGN.md §10) and cacheline traffic.

    Cells run through {!Shard} and are read back in plan order, so the
    rendered report is byte-identical at any [~jobs]. *)

type format = Table | Json

type row = {
  sh_label : string;  (** backend row label, e.g. ["paper-baseline"] *)
  sh_protocol : Opts.protocol;
  sh_initiator_mean : float;  (** madvise cycles, mean over iterations *)
  sh_initiator_sd : float;
  sh_responder_mean : float;  (** responder interruption per shootdown *)
  sh_shootdowns : int;
  sh_prep_p50 : float option;  (** pooled over distance ranks; [None] = no samples *)
  sh_ipi_p50 : float option;
  sh_flush_p50 : float option;
  sh_ack_p50 : float option;
  sh_line_transfers : int;  (** metered cacheline transfers, all ranks *)
  sh_line_cycles : float;  (** total cycles those transfers cost *)
}

(** Registers the backend cells with the builder and returns a plan-order
    row reader (only valid after the cells executed), for embedding in a
    harness that owns its own [Shard.execute]. Defaults: 10 PTEs, 200
    iterations, seed 7. *)
val plan_cells :
  Shard.builder ->
  ?pte_count:int ->
  ?iterations:int ->
  ?seed:int64 ->
  unit ->
  (unit -> row list)

(** Run every backend's cell (sharded over [jobs] domains) and render the
    rows, in backend order, as [format]. *)
val run :
  ?pte_count:int -> ?iterations:int -> ?seed:int64 -> jobs:int -> format -> string

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

(** One gate/JSON summary row per (experiment, backend). *)
type wl_row = {
  wl_experiment : string;  (** ["wl-fig10"] | ["wl-fig11"] | ["wl-bigmachine-56"] *)
  wl_protocol : Opts.protocol;
  wl_throughput : float option;
      (** fig10 ops/kcyc, fig11 req/Mcyc — mean over the scale's points *)
  wl_cycles_per_shootdown : float option;  (** bigmachine only *)
  wl_shootdowns : int;  (** summed over the family's cells *)
  wl_memoized : bool;  (** every cell reused from an earlier plan *)
}

type wl_report = {
  wl_fig10 : (Opts.protocol * (int * float * int) list) list;
      (** per backend: [(threads, ops/kcyc, shootdowns)] in thread order *)
  wl_fig11 : (Opts.protocol * (int * float * int) list) list;
  wl_big : (Opts.protocol * Bigmachine.result) list;
  wl_rows : wl_row list;  (** flattened summary rows, fixed plan order *)
}

(** Registers the per-backend workload cells with the builder (through
    {!Figures}' memoized cells) and returns a plan-order report reader,
    for embedding in a harness that owns its own memos and
    [Shard.execute]. A backend's rows are [wl_memoized] when the builder
    owns none of its cells. *)
val workload_cells :
  Shard.builder ->
  sysbench_memo:Sysbench.result Shard.memo ->
  apache_memo:Apache.result Shard.memo ->
  bigmachine_memo:Bigmachine.result Shard.memo ->
  fig10:Figures.fig10_scale ->
  fig11:Figures.fig11_scale ->
  quick:bool ->
  unit ->
  (unit -> wl_report)

(** Standalone run on fresh memos (the `tlbsim shootout --workloads`
    path), sharded over [jobs] domains; byte-identical at any [~jobs]. *)
val run_workloads : ?quick:bool -> jobs:int -> format -> string
