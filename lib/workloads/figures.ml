(* Shard plans and memoized cells for the paper's multi-run experiments.

   Each workload has one memoized cell constructor, shared by every plan
   that runs it, so two plans asking for the same (config, seed) build the
   same key and the second reads the first's slot. Configs are built here
   — opts copied per cell, the seed baked into the config — so every cell
   is a pure function of its own state and per-run RNG streams derive from
   the run's own seed, never from mutable state shared across cells.

   Weights are rough per-run engine-op estimates calibrated from
   BENCH_PERF.json; only their relative order matters (LPT scheduling). *)

let mode safe = if safe then "safe" else "unsafe"

(* ----- One memoized cell per workload ----- *)

let micro_cell ?(costs = Costs.default) b ~memo ~label ~opts ~placement ~pte_count
    ~iterations =
  let cfg =
    {
      (Microbench.default_config ~opts ~placement ~pte_count) with
      Microbench.iterations;
      costs;
    }
  in
  Shard.memo_cell b memo ~key:(Microbench.config_key cfg) ~label
    ~ops:(fun r -> r.Microbench.engine_ops)
      (* ~90 ops per iteration at 1 PTE, ~390 at 10 (measured). *)
    ~weight:
      (float_of_int (cfg.Microbench.iterations * (60 + (35 * cfg.Microbench.pte_count))))
    (fun () -> Microbench.run cfg)

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

let sysbench_cell b ~memo scale ~label ~opts ~threads ~seed =
  let cfg =
    {
      (Sysbench.default_config ~opts ~threads) with
      Sysbench.ops_per_thread = scale.sys_ops_per_thread;
      file_pages = scale.sys_file_pages;
      seed;
    }
  in
  Shard.memo_cell b memo ~key:(Sysbench.config_key cfg) ~label
    ~ops:(fun r -> r.Sysbench.engine_ops)
      (* ~230 engine ops per thread·write (measured: 735k ops for the mean
         fig10 run at 288 writes across 11.2 threads). *)
    ~weight:(float_of_int (threads * scale.sys_ops_per_thread * 230))
    (fun () -> Sysbench.run cfg)

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

let apache_cell b ~memo scale ~label ~opts ~cores ~seed =
  let cfg =
    {
      (Apache.default_config ~opts ~cores) with
      Apache.requests = scale.ap_requests;
      seed;
    }
  in
  Shard.memo_cell b memo ~key:(Apache.config_key cfg) ~label
    ~ops:(fun r -> r.Apache.engine_ops)
      (* ~370 ops per request at the sweep's midpoint, growing with cores. *)
    ~weight:(float_of_int (scale.ap_requests * (250 + (15 * cores))))
    (fun () -> Apache.run cfg)

let bigmachine_cell b ~memo ~quick ~label ~opts ~n_cpus =
  let cfg = Bigmachine.default_config ~opts ~n_cpus in
  (* The canonical quick shaping, so the bench's 56-CPU cell and the
     shootout's paper cell are one memo entry, not two near-twins. *)
  let cfg = if quick then Bigmachine.quick_shape cfg else cfg in
  Shard.memo_cell b memo ~key:(Bigmachine.config_key cfg) ~label
    ~ops:(fun r -> r.Bigmachine.engine_ops)
      (* Same work at every size; the bigger machines only pay more setup,
         so weight on the op count with a mild size bump. *)
    ~weight:
      (float_of_int
         ((cfg.Bigmachine.tenants * cfg.Bigmachine.threads_per_tenant
          * cfg.Bigmachine.ops_per_thread * 40)
         + (n_cpus * 100)))
    (fun () -> Bigmachine.run cfg)

(* ----- Figures 5-8 / Table 3: the madvise microbenchmark matrices ----- *)

type micro_matrix = (Microbench.placement * (string * Microbench.result) list) list

(* All stacks for all placements, as memoized cells; the getter rebuilds
   the (placement, (label, result) list) list shape the table printers
   eat. Figures 5-8 and table 3 request the same matrices, and several
   ablation rows coincide with matrix cells, so the first requester owns
   each job and later ones only read. *)
let micro_matrix b ~memo ~iterations ~safe ~pte_count =
  let rows =
    List.map
      (fun placement ->
        ( placement,
          List.map
            (fun (label, opts) ->
              ( label,
                micro_cell b ~memo
                  ~label:
                    (Printf.sprintf "micro %s %dpte %s %s" (mode safe) pte_count
                       (Microbench.placement_label placement)
                       label)
                  ~opts ~placement ~pte_count ~iterations ))
            (Opts.cumulative_general ~safe) ))
      Microbench.all_placements
  in
  fun () ->
    List.map (fun (p, cells) -> (p, List.map (fun (l, g) -> (l, g ())) cells)) rows

(* ----- Figures 10 and 11: workload sweeps ----- *)

(* A sweep point's cells, one per seed: the paper averages several runs
   per point. *)
let sysbench_point ~memo scale b ~label ~opts n =
  List.map
    (fun seed ->
      sysbench_cell b ~memo scale
        ~label:(Printf.sprintf "%s t=%d seed=%Ld" label n seed)
        ~opts ~threads:n ~seed)
    scale.sys_seeds

let apache_point ~memo scale b ~label ~opts n =
  List.map
    (fun seed ->
      apache_cell b ~memo scale
        ~label:(Printf.sprintf "%s c=%d seed=%Ld" label n seed)
        ~opts ~cores:n ~seed)
    scale.ap_seeds

let seed_mean f gets () =
  List.fold_left (fun acc g -> acc +. f (g ())) 0.0 gets
  /. float_of_int (List.length gets)

(* Figures 10 and 11: per mode, one row per sweep point with the
   baseline's seed-averaged throughput and each cumulative stack's
   speedup over it. *)
let speedup_plan name ~title ~axis ~base_header ~base_fmt ~points ~tput point =
  Shard.plan name (fun b ->
      let sides =
        List.map
          (fun safe ->
            let stacks = Opts.cumulative_workload ~safe in
            let avg ~tag ~opts n =
              seed_mean tput
                (point b ~label:(Printf.sprintf "%s %s %s" name (mode safe) tag) ~opts n)
            in
            let rows =
              List.map
                (fun n ->
                  let base = avg ~tag:"base" ~opts:(Opts.baseline ~safe) n in
                  (n, base, List.map (fun (tag, opts) -> avg ~tag ~opts n) stacks))
                points
            in
            (safe, List.map fst stacks, rows))
          [ true; false ]
      in
      fun () ->
        ( String.concat ""
            (List.map
               (fun (safe, stack_labels, rows) ->
                 Report.table ~title:(title (mode safe))
                   ~header:(axis :: base_header :: stack_labels)
                   (List.map
                      (fun (n, base, cells) ->
                        let base = base () in
                        string_of_int n :: base_fmt base
                        :: List.map
                             (fun cellv -> Report.speedup (cellv () /. base))
                             cells)
                      rows))
               sides),
          [] ))

let fig10_plan ~memo scale =
  speedup_plan "fig10"
    ~title:
      (Printf.sprintf
         "Figure 10 — Sysbench rnd-write + fdatasync speedup over baseline (%s mode; \
          paper: up to 1.22x, batching up to 1.18x, gains fade at high thread counts)")
    ~axis:"threads" ~base_header:"base ops/kcyc" ~base_fmt:(Printf.sprintf "%.3f")
    ~points:scale.sys_threads
    ~tput:(fun r -> r.Sysbench.throughput)
    (sysbench_point ~memo scale)

let fig11_plan ~memo scale =
  speedup_plan "fig11"
    ~title:
      (Printf.sprintf
         "Figure 11 — Apache mpm_event speedup over baseline (%s mode; paper: \
          concurrent up to 1.10x, in-context up to 1.05x)")
    ~axis:"cores" ~base_header:"base req/Mcyc" ~base_fmt:(Printf.sprintf "%.2f")
    ~points:scale.ap_cores
    ~tput:(fun r -> r.Apache.throughput)
    (apache_point ~memo scale)

(* One backend's column for the cross-backend workload comparison
   (DESIGN.md §13): the point's cells under [opts], reduced per point to
   the seed-averaged throughput plus the seed-summed shootdown count. The
   paper backend's opts ([Opts.all ~safe:true]) are value-identical to the
   figures' final "+batching" stack, so when this is planned after the
   figure on the same memo every paper cell is reused, never recomputed. *)
let backend_column b ~points ~tput ~shootdowns point ~label ~opts =
  let rows = List.map (fun n -> (n, point b ~label ~opts n)) points in
  fun () ->
    List.map
      (fun (n, gets) ->
        ( n,
          seed_mean tput gets (),
          List.fold_left (fun acc g -> acc + shootdowns (g ())) 0 gets ))
      rows

let fig10_backend_column b ~memo ~tag ~opts scale =
  backend_column b ~points:scale.sys_threads
    ~tput:(fun r -> r.Sysbench.throughput)
    ~shootdowns:(fun r -> r.Sysbench.shootdowns)
    (sysbench_point ~memo scale) ~label:("wl-fig10 " ^ tag) ~opts

let fig11_backend_column b ~memo ~tag ~opts scale =
  backend_column b ~points:scale.ap_cores
    ~tput:(fun r -> r.Apache.throughput)
    ~shootdowns:(fun r -> r.Apache.shootdowns)
    (apache_point ~memo scale) ~label:("wl-fig11 " ^ tag) ~opts
