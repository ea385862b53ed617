(** Big-machine scaling workload (DESIGN.md §12): identical multi-tenant
    sysbench-plus-reclaim churn run at 56/256/512/1024 logical CPUs, so
    the per-shootdown cost column isolates machine-size overhead from
    workload size. Emitted as the ["bigmachine"] family rows of
    BENCH_PERF.json and gated by bench/perf_gate.ml. *)

type config = {
  opts : Opts.t;
  sockets : int;
  cores_per_socket : int;
  smt : int;
  tenants : int;
  threads_per_tenant : int;
  ops_per_thread : int;
  churn_every : int;  (** madvise_dontneed cadence, in ops *)
  churn_pages : int;  (** private pages unmapped per churn *)
  file_pages : int;
  seed : int64;
}

(** The scaling column: [56; 256; 512; 1024] logical CPUs. *)
val sizes : int list

(** [(sockets, cores_per_socket, smt)] for each supported size; raises on
    sizes outside {!sizes}. 56 is the paper's 2x14x2 machine. *)
val topo_of_cpus : int -> int * int * int

(** Same work at every size: the config differs only in topology. *)
val default_config : opts:Opts.t -> n_cpus:int -> config

(** The canonical quick-mode reduction (fewer ops, denser churn). Every
    harness that wants memo sharing with the bench column must shape its
    quick configs through this one function. *)
val quick_shape : config -> config

(** Canonical value key for bench-harness cell memoization. *)
val config_key : config -> string

type result = {
  n_cpus : int;
  threads : int;
  ops : int;
  shootdowns : int;
  ipis : int;
  icr_writes : int;
  churn_cycles : int;  (** simulated cycles inside madvise_dontneed calls *)
  churns : int;
  cycles_per_shootdown : float;
      (** [churn_cycles / shootdowns] — simulated time, deterministic
          across hosts and [-j] levels, so the perf gate compares it raw *)
  engine_ops : int;
}

val run : config -> result
