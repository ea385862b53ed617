(* Shard plans for the paper's multi-run experiments.

   Each builder flattens an experiment's (config, seed) matrix into
   Shard cells at plan time and returns a reduce that reassembles the
   published tables from the cell slots. Configs are built here — opts
   copied per cell, the seed baked into the config — so every cell is a
   pure function of its own state and per-run RNG streams derive from the
   run's own seed, never from mutable state shared across cells.

   Weights are rough per-run engine-op estimates calibrated from
   BENCH_PERF.json; only their relative order matters (LPT scheduling). *)

(* ~90 ops per iteration at 1 PTE, ~390 at 10 (measured). *)
let micro_weight ~iterations ~pte_count = float_of_int (iterations * (60 + (35 * pte_count)))

(* ~230 engine ops per thread·write (measured: 735k ops for the mean
   fig10 run at 288 writes across 11.2 threads). *)
let sysbench_weight ~threads ~ops_per_thread = float_of_int (threads * ops_per_thread * 230)

(* ~370 ops per request at the sweep's midpoint, growing with cores. *)
let apache_weight ~cores ~requests = float_of_int (requests * (250 + (15 * cores)))

(* ----- Figures 5-8 / Table 3: the madvise microbenchmark matrices ----- *)

type micro_matrix = (Microbench.placement * (string * Microbench.result) list) list

(* All stacks for all placements, as memoized cells; the getter rebuilds
   the (placement, (label, result) list) list shape the table printers
   eat. Figures 5-8 and table 3 request the same matrices, and several
   ablation rows coincide with matrix cells, so the first requester owns
   each job and later ones only read — [reused] counts the latter. *)
let micro_matrix_cells ~memo ~iterations ~warmup ~safe ~pte_count =
  let stacks = Opts.cumulative_general ~safe in
  let jobs = ref [] in
  let reused = ref 0 in
  let rows =
    List.map
      (fun placement ->
        let cells =
          List.map
            (fun (label, opts) ->
              let cfg =
                Microbench.default_config ~opts ~placement ~pte_count
              in
              let cfg = { cfg with Microbench.iterations; warmup } in
              let js, get, fresh =
                Shard.memo_cell memo ~key:(Microbench.config_key cfg)
                  ~label:
                    (Printf.sprintf "micro %s %dpte %s %s"
                       (if safe then "safe" else "unsafe")
                       pte_count
                       (Microbench.placement_label placement)
                       label)
                  ~ops:(fun r -> r.Microbench.engine_ops)
                  ~weight:(micro_weight ~iterations ~pte_count)
                  (fun () -> Microbench.run cfg)
              in
              jobs := List.rev_append js !jobs;
              if not fresh then incr reused;
              (label, get))
            stacks
        in
        (placement, cells))
      Microbench.all_placements
  in
  let get () =
    List.map (fun (p, cells) -> (p, List.map (fun (l, g) -> (l, g ())) cells)) rows
  in
  (List.rev !jobs, get, !reused)

(* ----- Figure 10: Sysbench ----- *)

type fig10_scale = {
  sys_threads : int list;
  sys_seeds : int64 list;  (** the paper averages several runs per point *)
  sys_ops_per_thread : int;
  sys_file_pages : int;
}

let fig10_scale ~quick =
  if quick then
    { sys_threads = [ 1; 4; 10; 16 ]; sys_seeds = [ 23L ]; sys_ops_per_thread = 120; sys_file_pages = 1024 }
  else
    {
      sys_threads = [ 1; 2; 3; 4; 6; 8; 10; 12; 16; 20; 24; 28 ];
      sys_seeds = [ 23L; 137L; 911L ];
      sys_ops_per_thread = 288;
      sys_file_pages = 4096;
    }

let fig10_plan ~memo scale =
  let jobs = ref [] in
  let reused = ref 0 in
  (* One memoized cell per (config, seed); the getter averages the seeds. *)
  let avg_cell ~tag ~opts ~n =
    let getters =
      List.map
        (fun seed ->
          let cfg = Sysbench.default_config ~opts ~threads:n in
          let cfg =
            {
              cfg with
              Sysbench.ops_per_thread = scale.sys_ops_per_thread;
              file_pages = scale.sys_file_pages;
              seed;
            }
          in
          let js, get, fresh =
            Shard.memo_cell memo ~key:(Sysbench.config_key cfg)
              ~label:(Printf.sprintf "fig10 %s t=%d seed=%Ld" tag n seed)
              ~ops:(fun r -> r.Sysbench.engine_ops)
              ~weight:(sysbench_weight ~threads:n ~ops_per_thread:scale.sys_ops_per_thread)
              (fun () -> Sysbench.run cfg)
          in
          jobs := List.rev_append js !jobs;
          if not fresh then incr reused;
          get)
        scale.sys_seeds
    in
    fun () ->
      List.fold_left (fun acc g -> acc +. (g ()).Sysbench.throughput) 0.0 getters
      /. float_of_int (List.length getters)
  in
  let sides =
    List.map
      (fun safe ->
        let stacks = Opts.cumulative_workload ~safe in
        let tag l = Printf.sprintf "%s %s" (if safe then "safe" else "unsafe") l in
        let rows =
          List.map
            (fun n ->
              let base = avg_cell ~tag:(tag "base") ~opts:(Opts.baseline ~safe) ~n in
              let cells =
                List.map (fun (label, opts) -> avg_cell ~tag:(tag label) ~opts ~n) stacks
              in
              (n, base, cells))
            scale.sys_threads
        in
        (safe, List.map fst stacks, rows))
      [ true; false ]
  in
  let reduce () =
    List.iter
      (fun (safe, stack_labels, rows) ->
        let header = "threads" :: "base ops/kcyc" :: stack_labels in
        let rows =
          List.map
            (fun (n, base, cells) ->
              let base = base () in
              string_of_int n
              :: Printf.sprintf "%.3f" base
              :: List.map (fun cellv -> Report.speedup (cellv () /. base)) cells)
            rows
        in
        Report.table
          ~title:
            (Printf.sprintf
               "Figure 10 — Sysbench rnd-write + fdatasync speedup over baseline (%s \
                mode; paper: up to 1.22x, batching up to 1.18x, gains fade at high \
                thread counts)"
               (if safe then "safe" else "unsafe"))
          ~header rows)
      sides;
    []
  in
  { Shard.name = "fig10"; jobs = List.rev !jobs; reused = !reused; reduce }

(* One backend's fig10 column for the cross-backend workload comparison
   (DESIGN.md §13): a memoized cell per (thread count, seed) under [opts],
   reduced per thread count to the seed-averaged throughput plus the
   seed-summed shootdown count. The paper backend's opts
   ([Opts.all ~safe:true]) are value-identical to fig10's final
   "+batching" stack, so when this is planned after {!fig10_plan} on the
   same memo every paper cell is reused, never recomputed. *)
let fig10_backend_cells ~memo ~tag ~opts scale =
  let jobs = ref [] in
  let reused = ref 0 in
  let rows =
    List.map
      (fun n ->
        let getters =
          List.map
            (fun seed ->
              let cfg = Sysbench.default_config ~opts ~threads:n in
              let cfg =
                {
                  cfg with
                  Sysbench.ops_per_thread = scale.sys_ops_per_thread;
                  file_pages = scale.sys_file_pages;
                  seed;
                }
              in
              let js, get, fresh =
                Shard.memo_cell memo ~key:(Sysbench.config_key cfg)
                  ~label:(Printf.sprintf "wl-fig10 %s t=%d seed=%Ld" tag n seed)
                  ~ops:(fun r -> r.Sysbench.engine_ops)
                  ~weight:
                    (sysbench_weight ~threads:n ~ops_per_thread:scale.sys_ops_per_thread)
                  (fun () -> Sysbench.run cfg)
              in
              jobs := List.rev_append js !jobs;
              if not fresh then incr reused;
              get)
            scale.sys_seeds
        in
        let nseeds = float_of_int (List.length getters) in
        fun () ->
          let tput =
            List.fold_left (fun acc g -> acc +. (g ()).Sysbench.throughput) 0.0 getters
            /. nseeds
          in
          let sh =
            List.fold_left (fun acc g -> acc + (g ()).Sysbench.shootdowns) 0 getters
          in
          (n, tput, sh))
      scale.sys_threads
  in
  (List.rev !jobs, (fun () -> List.map (fun g -> g ()) rows), !reused)

(* ----- Figure 11: Apache ----- *)

type fig11_scale = {
  ap_cores : int list;
  ap_seeds : int64 list;
  ap_requests : int;
}

let fig11_scale ~quick =
  if quick then { ap_cores = [ 1; 4; 8; 11 ]; ap_seeds = [ 31L ]; ap_requests = 220 }
  else
    {
      ap_cores = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
      ap_seeds = [ 31L; 211L; 1013L ];
      ap_requests = 660;
    }

let fig11_plan ~memo scale =
  let jobs = ref [] in
  let reused = ref 0 in
  let avg_cell ~tag ~opts ~n =
    let getters =
      List.map
        (fun seed ->
          let cfg = Apache.default_config ~opts ~cores:n in
          let cfg = { cfg with Apache.requests = scale.ap_requests; seed } in
          let js, get, fresh =
            Shard.memo_cell memo ~key:(Apache.config_key cfg)
              ~label:(Printf.sprintf "fig11 %s c=%d seed=%Ld" tag n seed)
              ~ops:(fun r -> r.Apache.engine_ops)
              ~weight:(apache_weight ~cores:n ~requests:scale.ap_requests)
              (fun () -> Apache.run cfg)
          in
          jobs := List.rev_append js !jobs;
          if not fresh then incr reused;
          get)
        scale.ap_seeds
    in
    fun () ->
      List.fold_left (fun acc g -> acc +. (g ()).Apache.throughput) 0.0 getters
      /. float_of_int (List.length getters)
  in
  let sides =
    List.map
      (fun safe ->
        let stacks = Opts.cumulative_workload ~safe in
        let tag l = Printf.sprintf "%s %s" (if safe then "safe" else "unsafe") l in
        let rows =
          List.map
            (fun n ->
              let base = avg_cell ~tag:(tag "base") ~opts:(Opts.baseline ~safe) ~n in
              let cells =
                List.map (fun (label, opts) -> avg_cell ~tag:(tag label) ~opts ~n) stacks
              in
              (n, base, cells))
            scale.ap_cores
        in
        (safe, List.map fst stacks, rows))
      [ true; false ]
  in
  let reduce () =
    List.iter
      (fun (safe, stack_labels, rows) ->
        let header = "cores" :: "base req/Mcyc" :: stack_labels in
        let rows =
          List.map
            (fun (n, base, cells) ->
              let base = base () in
              string_of_int n
              :: Printf.sprintf "%.2f" base
              :: List.map (fun cellv -> Report.speedup (cellv () /. base)) cells)
            rows
        in
        Report.table
          ~title:
            (Printf.sprintf
               "Figure 11 — Apache mpm_event speedup over baseline (%s mode; paper: \
                concurrent up to 1.10x, in-context up to 1.05x)"
               (if safe then "safe" else "unsafe"))
          ~header rows)
      sides;
    []
  in
  { Shard.name = "fig11"; jobs = List.rev !jobs; reused = !reused; reduce }

(* One backend's fig11 column, same shape as {!fig10_backend_cells}: a
   memoized cell per (core count, seed), reduced per core count to the
   seed-averaged throughput and seed-summed shootdowns. *)
let fig11_backend_cells ~memo ~tag ~opts scale =
  let jobs = ref [] in
  let reused = ref 0 in
  let rows =
    List.map
      (fun n ->
        let getters =
          List.map
            (fun seed ->
              let cfg = Apache.default_config ~opts ~cores:n in
              let cfg = { cfg with Apache.requests = scale.ap_requests; seed } in
              let js, get, fresh =
                Shard.memo_cell memo ~key:(Apache.config_key cfg)
                  ~label:(Printf.sprintf "wl-fig11 %s c=%d seed=%Ld" tag n seed)
                  ~ops:(fun r -> r.Apache.engine_ops)
                  ~weight:(apache_weight ~cores:n ~requests:scale.ap_requests)
                  (fun () -> Apache.run cfg)
              in
              jobs := List.rev_append js !jobs;
              if not fresh then incr reused;
              get)
            scale.ap_seeds
        in
        let nseeds = float_of_int (List.length getters) in
        fun () ->
          let tput =
            List.fold_left (fun acc g -> acc +. (g ()).Apache.throughput) 0.0 getters
            /. nseeds
          in
          let sh =
            List.fold_left (fun acc g -> acc + (g ()).Apache.shootdowns) 0 getters
          in
          (n, tput, sh))
      scale.ap_cores
  in
  (List.rev !jobs, (fun () -> List.map (fun g -> g ()) rows), !reused)
