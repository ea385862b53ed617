(* The `tlbsim stats` workload: a metered microbench sweep whose merged
   phase-latency registry is exported as a table, JSON, or Prometheus text.

   Cells are self-contained (config, seed) sim runs — the same contract as
   the bench harness — executed on the shared Domain_pool and merged in
   plan order into a fresh registry, so the report is byte-identical at
   any [-j]. The sweep covers every placement (self/SMT flush-exec rows
   come from the same-core placement, cross-socket rows from the
   cross-socket one) and three flush sizes: 1 and 10 PTEs (the paper's
   ranged flushes) plus 50, which exceeds Linux's 33-entry full-flush
   ceiling and exercises the CR3 path. *)

type format = Table | Json | Prometheus

let pte_counts = [ 1; 10; 50 ]

let metered_cell b ~label ~opts ~placement ~pte_count ~iterations =
  let base = Microbench.default_config ~opts ~placement ~pte_count in
  let config = { base with Microbench.iterations; metering = true } in
  Shard.cell b ~label
    ~ops:(fun r -> r.Microbench.engine_ops)
    ~weight:(float_of_int (iterations * pte_count))
    (fun () -> Microbench.run config)

let collect ?(iterations = 200) ~jobs () =
  Shard.run ~jobs (fun b ->
      let cells =
        List.concat_map
          (fun placement ->
            List.map
              (fun pte_count ->
                metered_cell b
                  ~label:
                    (Printf.sprintf "stats/%s/%d" (Microbench.placement_label placement)
                       pte_count)
                  ~opts:(Opts.all ~safe:true) ~placement ~pte_count ~iterations)
              pte_counts)
          Microbench.all_placements
      in
      (* Plan-order merge into a fresh registry: every cell pre-registered
         the same series in the same order (Machine.create), so the merged
         registration order — and each accumulator's sample order — is a
         pure function of the plan, independent of worker count. *)
      fun () ->
        let merged = Metrics.create ~enabled:false () in
        List.iter
          (fun get -> Metrics.merge_into merged (get ()).Microbench.metrics)
          cells;
        merged)

let render format metrics =
  match format with
  | Json -> Metrics.to_json metrics
  | Prometheus -> Metrics.to_prometheus metrics
  | Table -> Format.asprintf "%a" Metrics.pp_table metrics

let run ?iterations ~jobs format = render format (collect ?iterations ~jobs ())
