(* The `tlbsim shootout` workload: the same metered madvise microbenchmark
   run once per protocol backend, reduced to one comparison row each —
   initiator/responder latency, shootdown count, phase-latency p50s from
   the machine's metric registry (DESIGN.md §10), and cacheline traffic.

   Cells are self-contained (config, seed) sim runs executed on the shared
   Domain_pool and read back in plan order, the same contract as the bench
   harness and `tlbsim stats`, so the report is byte-identical at any
   [-j]. Each report is built once, here, as tables plus BENCH_PERF rows:
   the bench's plans return it and the CLI prints it. The paper backend
   appears twice — all optimizations and bare baseline — bracketing the
   protocol's own headroom before the alternative backends are compared
   against it. *)

type format = Table | Json

(* One entry per backend under comparison. *)
let backends () =
  [
    ("paper", Opts.all ~safe:true);
    ("paper-baseline", Opts.baseline ~safe:true);
    ("oracle", Opts.oracle ~safe:true);
    ("sync-broadcast", Opts.with_protocol Opts.Sync_broadcast ~safe:true);
    ("queue-spin", Opts.with_protocol Opts.Queue_spin ~safe:true);
  ]

(* Pool every series of [name]: exact-moment merge of each per-rank
   accumulator into a fresh one (phase series are split by topology
   distance; the comparison wants the phase as a whole). Series carrying
   kind="skipped" are excluded — generation-skip "flushes" are priced at
   ~0 cycles and a broadcast backend IPIs 50+ idle CPUs per shootdown, so
   pooling them in would pin every broadcast flush p50 to 0. *)
let pooled_stats metrics name =
  let acc = Stats.create () in
  List.iter
    (fun s ->
      if
        String.equal (Metrics.series_name s) name
        && not (List.mem ("kind", "skipped") (Metrics.series_labels s))
      then Stats.merge_into acc (Metrics.stats s))
    (Metrics.all metrics);
  acc

(* What the CLI prints of a report: its tables, or with [Json] its rows as
   a BENCH_PERF file. *)
let render format (tables, rows) =
  match format with Table -> tables | Json -> Bench_perf.to_string ~mode:"shootout" rows

(* The shootout table's columns: header, the row value it shows, format. *)
let columns =
  let f0 = Printf.sprintf "%.0f" in
  [
    ("initiator", "initiator_mean", Report.cycles);
    ("responder", "responder_mean", Report.cycles);
    ("prep", "prep_p50", f0);
    ("ipi", "ipi_p50", f0);
    ("flush", "flush_p50", f0);
    ("ack", "ack_p50", f0);
    ("line xfers", "line_transfers", f0);
  ]

(* The backend cells, registered with [b], and a plan-order reader of the
   report: one BENCH_PERF row per backend, in [backends] order, and the
   table drawn from those rows. *)
let plan_cells b ?(pte_count = 10) ?(iterations = 200) () =
  let cells =
    List.map
      (fun (label, opts) ->
        ( label,
          Observe.metered_cell b
            ~label:(Printf.sprintf "shootout/%s" label)
            ~opts ~placement:Microbench.Cross_socket ~pte_count ~iterations ))
      (backends ())
  in
  fun () ->
    let rows =
      List.map
        (fun (label, get) ->
          let r = get () in
          let p50 name =
            Stats.percentile_opt (pooled_stats r.Microbench.metrics name) 50.0
          in
          let line = pooled_stats r.Microbench.metrics "cacheline_transfer_cycles" in
          Bench_perf.(
            row "shootout" label
              [
                ("initiator_mean", Some r.Microbench.initiator_mean);
                ("initiator_sd", Some r.Microbench.initiator_sd);
                ("responder_mean", Some r.Microbench.responder_mean);
                ("shootdowns", int r.Microbench.shootdowns);
                ("prep_p50", p50 "shootdown_prep_cycles");
                ("ipi_p50", p50 "ipi_delivery_cycles");
                ("flush_p50", p50 "flush_exec_cycles");
                ("ack_p50", p50 "ack_wait_cycles");
                ("line_transfers", int (Stats.count line));
                ("line_cycles", Some (Stats.total line));
              ]))
        cells
    in
    let table =
      Report.table
        ~title:
          (Printf.sprintf
             "Shootout — protocol backends on the cross-socket madvise microbenchmark \
              (%d PTE%s, safe mode; phase p50s in cycles)"
             pte_count
             (if pte_count = 1 then "" else "s"))
        ~header:("backend" :: List.map (fun (h, _, _) -> h) columns)
        (List.map
           (fun r ->
             r.Bench_perf.key
             :: List.map
                  (fun (_, name, fmt) ->
                    match Bench_perf.value r name with None -> "-" | Some v -> fmt v)
                  columns)
           rows)
    in
    (table, rows)

let run ?pte_count ?iterations ~jobs format =
  render format (Shard.run ~jobs (fun b -> plan_cells b ?pte_count ?iterations ()))

(* ----- Cross-backend workloads: fig10 / fig11 / bigmachine-56 ----- *)

(* The workload comparison drops paper-baseline (fig10/fig11 already print
   baseline speedup columns) and races the four real backends on the
   paper's workload evaluation. Paper opts are [Opts.all ~safe:true] —
   value-identical to fig10/fig11's final "+batching" stack and the bench
   bigmachine config — so in a bench `all` run planned after those
   experiments every paper cell comes from the memo, not a rerun. *)
let workload_backends () =
  [
    ("paper", Opts.all ~safe:true);
    ("oracle", Opts.oracle ~safe:true);
    ("sync-broadcast", Opts.with_protocol Opts.Sync_broadcast ~safe:true);
    ("queue-spin", Opts.with_protocol Opts.Queue_spin ~safe:true);
  ]

let workload_cells b ~sysbench_memo ~apache_memo ~bigmachine_memo ~quick () =
  let fig10 = Figures.fig10_scale ~quick and fig11 = Figures.fig11_scale ~quick in
  (* Per backend: its label, its getter, and whether it owns none of its
     cells (every one read from an earlier plan). *)
  let per_backend cells =
    List.map
      (fun (label, opts) ->
        let owned = Shard.owned b in
        let get = cells ~label ~opts in
        (label, get, Shard.owned b = owned))
      (workload_backends ())
  in
  let f10 =
    per_backend (fun ~label ~opts ->
        Figures.fig10_backend_column b ~memo:sysbench_memo ~tag:label ~opts fig10)
  in
  let f11 =
    per_backend (fun ~label ~opts ->
        Figures.fig11_backend_column b ~memo:apache_memo ~tag:label ~opts fig11)
  in
  let big =
    per_backend (fun ~label ~opts ->
        Figures.bigmachine_cell b ~memo:bigmachine_memo ~quick
          ~label:("wl-bigmachine-56 " ^ label)
          ~opts ~n_cpus:56)
  in
  fun () ->
    let read l = List.map (fun (label, get, memoized) -> (label, get (), memoized)) l in
    let f10 = read f10 and f11 = read f11 and big = read big in
    (* Points as rows, backends as columns. *)
    let tput_table ~title ~axis ~fmt points columns =
      Report.table ~title
        ~header:(axis :: List.map (fun (label, _, _) -> label) columns)
        (List.mapi
           (fun i n ->
             string_of_int n
             :: List.map
                  (fun (_, cells, _) ->
                    let _, t, _ = List.nth cells i in
                    fmt t)
                  columns)
           points)
    in
    (* One row per backend: the mean throughput over the scale's points and
       the shootdowns summed over its cells. *)
    let tput_rows experiment columns =
      List.map
        (fun (label, cells, memoized) ->
          let sum f = List.fold_left (fun acc cell -> acc +. f cell) 0.0 cells in
          Bench_perf.row "workloads" ~memoized
            (experiment ^ "/" ^ label)
            [
              ( "throughput",
                Some (sum (fun (_, t, _) -> t) /. float_of_int (List.length cells)) );
              ("cycles_per_shootdown", None);
              ("shootdowns", Some (sum (fun (_, _, s) -> float_of_int s)));
            ])
        columns
    in
    let big_rows =
      List.map
        (fun (label, r, memoized) ->
          Bench_perf.(
            row "workloads" ~memoized ("wl-bigmachine-56/" ^ label)
              [
                ("throughput", None);
                ("cycles_per_shootdown", Some r.Bigmachine.cycles_per_shootdown);
                ("shootdowns", int r.Bigmachine.shootdowns);
              ]))
        big
    in
    ( tput_table
        ~title:
          "Shootout workloads — fig10 sysbench ops/kcyc per protocol backend (safe \
           mode)"
        ~axis:"threads" ~fmt:(Printf.sprintf "%.3f") fig10.Figures.sys_threads f10
      ^ tput_table
          ~title:
            "Shootout workloads — fig11 apache req/Mcyc per protocol backend (safe mode)"
          ~axis:"cores" ~fmt:(Printf.sprintf "%.2f") fig11.Figures.ap_cores f11
      ^ Report.table
          ~title:
            "Shootout workloads — bigmachine-56 multi-tenant churn per protocol backend"
          ~header:[ "backend"; "cycles/shootdown"; "shootdowns"; "IPIs"; "ICR writes" ]
          (List.map
             (fun (label, r, _) ->
               [
                 label;
                 Printf.sprintf "%.0f" r.Bigmachine.cycles_per_shootdown;
                 string_of_int r.Bigmachine.shootdowns;
                 string_of_int r.Bigmachine.ipis;
                 string_of_int r.Bigmachine.icr_writes;
               ])
             big),
      tput_rows "wl-fig10" f10 @ tput_rows "wl-fig11" f11 @ big_rows )

let run_workloads ?(quick = true) ~jobs format =
  render format
    (Shard.run ~jobs (fun b ->
         workload_cells b ~sysbench_memo:(Shard.create_memo ())
           ~apache_memo:(Shard.create_memo ()) ~bigmachine_memo:(Shard.create_memo ())
           ~quick ()))
