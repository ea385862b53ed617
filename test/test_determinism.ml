(* The simulator is deterministic: a workload config (seeds included) fully
   determines its results. The bench harness's `-j N` mode leans on this —
   experiments run on whatever domain picks them up, and the output must not
   depend on the schedule. These tests pin both properties: same config
   twice gives identical numbers, and the domain pool at `-j 2` returns
   exactly what the inline sequential runner returns. *)

let check = Alcotest.check
let pairf = Alcotest.(pair (float 0.0) (float 0.0))

let micro_cell ?(placement = Microbench.Cross_socket) () =
  let cfg =
    Microbench.default_config ~opts:(Opts.all_general ~safe:true) ~placement ~pte_count:10
  in
  let r = Microbench.run { cfg with Microbench.iterations = 20; warmup = 5 } in
  (r.Microbench.initiator_mean, r.Microbench.responder_mean)

let sys_cell () =
  let cfg = Sysbench.default_config ~opts:(Opts.all ~safe:true) ~threads:4 in
  let r =
    Sysbench.run { cfg with Sysbench.ops_per_thread = 60; file_pages = 256; seed = 23L }
  in
  (r.Sysbench.throughput, float_of_int r.Sysbench.shootdowns)

let test_microbench_repeatable () =
  check pairf "identical back-to-back" (micro_cell ()) (micro_cell ())

let test_sysbench_repeatable () =
  check pairf "identical back-to-back" (sys_cell ()) (sys_cell ())

(* The microbenchmark draws nothing from the machine's RNG, so its seed
   selects nothing: every result field, the phase metrics included, is the
   same at two seeds under every backend. The shootout and stats reports,
   built from it, take no seed for that reason; an RNG draw on this path
   must fail here first. *)
let test_microbench_seed_inert () =
  List.iter
    (fun protocol ->
      let opts = Opts.with_protocol protocol ~safe:true in
      let cfg =
        Microbench.default_config ~opts ~placement:Microbench.Cross_socket ~pte_count:10
      in
      let run seed =
        let r =
          Microbench.run
            { cfg with Microbench.iterations = 20; warmup = 5; seed; metering = true }
        in
        ( [
            r.Microbench.initiator_mean;
            r.Microbench.initiator_sd;
            r.Microbench.responder_mean;
            r.Microbench.responder_sd;
          ],
          (r.Microbench.shootdowns, r.Microbench.engine_ops),
          Metrics.to_json r.Microbench.metrics )
      in
      check
        Alcotest.(triple (list (float 0.0)) (pair int int) string)
        (Opts.protocol_label protocol ^ ": seeds 1 and 99 agree")
        (run 1L) (run 99L))
    Opts.all_protocols

let test_domain_pool_preserves_order () =
  let tasks = Array.init 32 (fun i () -> i * i) in
  check
    Alcotest.(array int)
    "slot i holds task i" (Array.init 32 (fun i -> i * i))
    (Domain_pool.run ~jobs:4 tasks)

let test_parallel_matches_sequential () =
  let tasks =
    Array.of_list
      (List.map (fun placement () -> micro_cell ~placement ()) Microbench.all_placements
      @ [ sys_cell ])
  in
  let seq = Domain_pool.run ~jobs:1 tasks in
  let par = Domain_pool.run ~jobs:2 tasks in
  check Alcotest.(array pairf) "-j 2 = -j 1" seq par

(* LPT ordering is a schedule detail: whatever order workers claim tasks
   in, slot i must still hold task i's value. *)
let test_weighted_chunked_pool_slot_order () =
  let n = 37 in
  let tasks = Array.init n (fun i () -> (i * 7) mod 13) in
  let expected = Array.init n (fun i -> (i * 7) mod 13) in
  let weights = Array.init n (fun i -> float_of_int ((i * 31) mod 17)) in
  check
    Alcotest.(array int)
    "weighted, -j4" expected
    (Domain_pool.run ~jobs:4 ~weights tasks);
  check
    Alcotest.(array int)
    "weighted, -j1 inline" expected
    (Domain_pool.run ~jobs:1 ~weights tasks)

(* The tentpole property: sharded fig10/fig11 plans reduce to byte-identical
   table output at every -j. Mini scales keep the test quick while still
   putting several (config, seed) cells in flight per table row. *)
let fig10_mini =
  {
    Figures.sys_threads = [ 1; 2 ];
    sys_seeds = [ 23L; 137L ];
    sys_ops_per_thread = 40;
    sys_file_pages = 128;
  }

let fig11_mini = { Figures.ap_cores = [ 1; 2 ]; ap_seeds = [ 31L ]; ap_requests = 40 }

let sharded_output ~jobs =
  (* Fresh memos per call so every jobs level executes its own cells. *)
  let outcomes =
    Shard.execute ~jobs
      [
        Figures.fig10_plan ~memo:(Shard.create_memo ()) fig10_mini;
        Figures.fig11_plan ~memo:(Shard.create_memo ()) fig11_mini;
      ]
  in
  String.concat "" (List.map (fun o -> o.Shard.output) outcomes)

let test_sharded_figures_identical_across_jobs () =
  let j1 = sharded_output ~jobs:1 in
  check Alcotest.bool "plans produced tables" true (String.length j1 > 0);
  check Alcotest.string "-j2 byte-identical to -j1" j1 (sharded_output ~jobs:2);
  check Alcotest.string "-j4 byte-identical to -j1" j1 (sharded_output ~jobs:4)

(* Per-run RNG isolation: a run's stream derives from its own config seed,
   never from state shared across cells. Two identical-config cells must
   agree even when cells with different seeds execute between and around
   them on other domains. *)
let test_per_run_rng_isolation () =
  let sys ~seed () =
    let cfg = Sysbench.default_config ~opts:(Opts.all ~safe:true) ~threads:2 in
    let r =
      Sysbench.run { cfg with Sysbench.ops_per_thread = 40; file_pages = 128; seed }
    in
    (r.Sysbench.throughput, float_of_int r.Sysbench.shootdowns)
  in
  let solo = sys ~seed:23L () in
  let interleaved =
    Domain_pool.run ~jobs:4
      [| sys ~seed:23L; sys ~seed:911L; sys ~seed:23L; sys ~seed:1013L; sys ~seed:23L |]
  in
  check pairf "slot 0 = solo" solo interleaved.(0);
  check pairf "slot 2 = solo" solo interleaved.(2);
  check pairf "slot 4 = solo" solo interleaved.(4);
  check Alcotest.bool "different seed differs" true (interleaved.(1) <> solo)

(* The `tlbsim stats` report merges per-cell metric registries in plan
   order, so every export format must be byte-identical at any -j. Mini
   iteration count: this runs nine metered sim cells per jobs level. *)
let test_metrics_report_identical_across_jobs () =
  let report ~jobs format = Observe.run ~iterations:20 ~jobs format in
  List.iter
    (fun (label, format) ->
      let j1 = report ~jobs:1 format in
      check Alcotest.bool (label ^ " non-empty") true (String.length j1 > 0);
      check Alcotest.string (label ^ ": -j2 = -j1") j1 (report ~jobs:2 format))
    [ ("table", Observe.Table); ("json", Observe.Json); ("prom", Observe.Prometheus) ]

(* Unmetered machines share one disabled registry. It keeps the metered
   series shape, so merged registries line up, and stays empty through
   unmetered runs, so no cell's samples reach another cell's registry. *)
let test_unmetered_registry_shared_and_empty () =
  let shape m =
    List.map
      (fun s -> (Metrics.series_name s, Metrics.series_labels s))
      (Metrics.all m.Machine.metrics)
  in
  let opts = Opts.all ~safe:true in
  let a = Machine.create ~opts () and b = Machine.create ~opts () in
  check Alcotest.bool "one shared registry" true (a.Machine.metrics == b.Machine.metrics);
  check
    Alcotest.(list (pair string (list (pair string string))))
    "metered shape"
    (shape (Machine.create ~metering:true ~opts ()))
    (shape a);
  ignore (micro_cell ());
  List.iter
    (fun s -> check Alcotest.int (Metrics.series_name s) 0 (Stats.count (Metrics.stats s)))
    (Metrics.all a.Machine.metrics)

(* Metering only observes: a metered run gives the numbers of the same run
   unmetered, for every backend (and the paper protocol without its
   mitigations), placement and flush size. *)
let test_metering_leaves_results_unchanged () =
  let summary (r : Microbench.result) =
    ( (r.Microbench.initiator_mean, r.Microbench.initiator_sd, r.Microbench.responder_mean),
      (r.Microbench.shootdowns, r.Microbench.engine_ops) )
  in
  let summary_t =
    Alcotest.(
      pair (triple (float 0.0) (float 0.0) (float 0.0)) (pair int int))
  in
  List.iter
    (fun (label, opts) ->
      List.iter
        (fun placement ->
          List.iter
            (fun pte_count ->
              let cfg = Microbench.default_config ~opts ~placement ~pte_count in
              let run metering =
                summary (Microbench.run { cfg with Microbench.iterations = 60; metering })
              in
              check summary_t
                (Printf.sprintf "%s, %s, %d pte(s)" label
                   (Microbench.placement_label placement)
                   pte_count)
                (run false) (run true))
            [ 1; 10; 50 ])
        Microbench.all_placements)
    [
      ("paper all", Opts.all ~safe:true);
      ("paper baseline", Opts.baseline ~safe:true);
      ("oracle", Opts.oracle ~safe:true);
      ("sync-broadcast", Opts.with_protocol Opts.Sync_broadcast ~safe:true);
      ("queue-spin", Opts.with_protocol Opts.Queue_spin ~safe:true);
      ("paper all, unsafe", Opts.all ~safe:false);
    ]

let suite =
  [
    Alcotest.test_case "microbench repeatable" `Quick test_microbench_repeatable;
    Alcotest.test_case "sysbench repeatable" `Quick test_sysbench_repeatable;
    Alcotest.test_case "domain pool: result order" `Quick test_domain_pool_preserves_order;
    Alcotest.test_case "domain pool: -j2 = -j1" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "domain pool: weighted/chunked slot order" `Quick
      test_weighted_chunked_pool_slot_order;
    Alcotest.test_case "sharded fig10/fig11: -j2/-j4 = -j1" `Quick
      test_sharded_figures_identical_across_jobs;
    Alcotest.test_case "per-run rng streams isolated" `Quick test_per_run_rng_isolation;
    Alcotest.test_case "metrics report: -j2 = -j1 (all formats)" `Quick
      test_metrics_report_identical_across_jobs;
    Alcotest.test_case "metering leaves results unchanged" `Quick
      test_metering_leaves_results_unchanged;
    Alcotest.test_case "unmetered machines: one empty registry" `Quick
      test_unmetered_registry_shared_and_empty;
    Alcotest.test_case "microbench: the seed selects nothing" `Quick
      test_microbench_seed_inert;
  ]
