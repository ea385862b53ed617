(** The [tlbsim stats] workload: a metered microbench sweep (every
    placement × 1/10/50-PTE flushes, all six optimizations, safe mode)
    whose per-shootdown phase-latency metrics are merged in plan order —
    byte-identical output at any [~jobs] — and rendered as an ASCII table,
    JSON, or Prometheus text exposition. *)

type format = Table | Json | Prometheus

(** One metered microbench cell — [iterations] madvise shootdowns of
    [pte_count] pages from CPU 0 to the [placement] responder, phase
    metrics on — registered with the builder; returns the result getter. The
    shootout builds its per-backend cells with it too. *)
val metered_cell :
  Shard.builder ->
  label:string ->
  opts:Opts.t ->
  placement:Microbench.placement ->
  pte_count:int ->
  iterations:int ->
  (unit -> Microbench.result)

(** Run the sweep on [jobs] domains and return the merged registry.
    Defaults: 200 iterations per cell. *)
val collect : ?iterations:int -> jobs:int -> unit -> Metrics.t

(** {!collect}, rendered as [format]. *)
val run : ?iterations:int -> jobs:int -> format -> string
