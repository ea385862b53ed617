(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5, §7).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig5    -- one experiment
     dune exec bench/main.exe -- quick   -- everything, reduced iterations
     dune exec bench/main.exe -- all -j 4 -- sim runs on 4 domains
     dune exec bench/main.exe -- perf    -- wall-clock harness (BENCH_PERF.json)
     dune exec bench/main.exe -- bechamel -- harness self-measurement

   Simulated cycle counts are printed; EXPERIMENTS.md compares them to the
   paper's numbers.

   `-j N` semantics (sub-experiment sharding): every multi-run experiment
   is flattened at plan time into self-contained (config, seed) sim-run
   cells — fig10 alone is 2 modes x 12 thread counts x 6 configs x 3
   seeds = 432 cells in a full run — and ALL selected experiments' cells
   execute on one shared N-domain pool in longest-task-first order. Each
   cell's result lands in its own slot; tables are reduced from the slots
   in experiment order, so stdout is byte-identical for every `-j` by
   construction and the wall-clock bound is the slowest single cell, not
   the slowest experiment. `-j 1` spawns no domains. `-j 0` asks the
   runtime for a domain count. Expected scaling: the full bench is
   embarrassingly parallel past the plan phase, so wall-clock approaches
   (sum of cell costs) / N until the slowest fig10 cell dominates.
   Per-experiment elapsed-time lines go to stderr (per-cell lines with
   -v) so stdout stays comparable across runs and `-j` levels.

   `perf` respects `-j` too: engine ops are per-engine counters carried in
   each cell's result and summed at reduce time, so attribution is exact
   under any schedule; per-experiment wall_s sums the experiment's own
   cell walls (CPU-seconds when parallel). Experiments that drive no
   engine (table2, table4, paravirt) or own no cells in this invocation
   (table3 reusing the figures' matrices) report engine_ops null — an
   explicit n/a, never a misleading 0. *)

let quick = ref false
let verbose = ref false

let micro_iters () = if !quick then 60 else 200

(* ----- Cross-experiment cell memoization -----

   One memo per workload type, keyed on the workload's [config_key] by
   its one memoized-cell constructor ([Figures.micro_cell],
   [sysbench_cell], [bigmachine_cell]; fig9 alone runs CoW cells): any
   two cells with identical (config, seed) run once, owned by the FIRST
   requesting experiment in plan order. That subsumes the old ad-hoc
   matrix sharing (figures 5-8 and table 3 consume the same four micro
   matrices) and extends it to every coincidence: ablation A's baseline is
   fig6's cross-socket baseline cell, ablation B's x1 rows are matrix
   cells, and ablations C/E run sysbench at fig10's scale so their
   overlapping points are fig10 cells. Planning is sequential, so
   ownership is deterministic; reduced output is a pure function of cell
   slots either way. *)

let micro_memo : Microbench.result Shard.memo = Shard.create_memo ()
let sysbench_memo : Sysbench.result Shard.memo = Shard.create_memo ()
let apache_memo : Apache.result Shard.memo = Shard.create_memo ()
let cow_memo : Cow_bench.result Shard.memo = Shard.create_memo ()
let bigmachine_memo : Bigmachine.result Shard.memo = Shard.create_memo ()

let micro_matrix b ~safe ~pte_count =
  Figures.micro_matrix b ~memo:micro_memo ~iterations:(micro_iters ()) ~safe ~pte_count

let micro_figure ~fig ~safe ~pte_count matrix =
  let stacks = List.map fst (List.assoc Microbench.Same_core matrix) in
  let header = "placement" :: stacks in
  let side name pick =
    let rows =
      List.map
        (fun (placement, cells) ->
          Microbench.placement_label placement
          :: List.map (fun (_, r) -> Report.cycles (pick r)) cells)
        matrix
    in
    Report.table
      ~title:
        (Printf.sprintf "Figure %d%s (%s mode, %d PTE%s) — %s cycles" fig
           (match name with "initiator" -> "a" | _ -> "b")
           (if safe then "safe" else "unsafe")
           pte_count
           (if pte_count = 1 then "" else "s")
           name)
      ~header rows
  in
  side "initiator" (fun r -> r.Microbench.initiator_mean)
  ^ side "responder" (fun r -> r.Microbench.responder_mean)
  (* The paper's bar-figure rendition for the farthest placement. *)
  ^ Report.bars
    ~title:
      (Printf.sprintf "Figure %da, cross-socket initiator cycles (bars)" fig)
    (List.map
       (fun (label, r) -> (label, r.Microbench.initiator_mean))
       (List.assoc Microbench.Cross_socket matrix))

let micro_figure_plan ~fig ~safe ~pte_count () =
  Shard.plan (Printf.sprintf "fig%d" fig) @@ fun b ->
  let get = micro_matrix b ~safe ~pte_count in
  fun () -> (micro_figure ~fig ~safe ~pte_count (get ()), [])

(* ----- Table 3: latency reduction cross-socket, all four techniques ----- *)

let table3_plan () =
  Shard.plan "table3" @@ fun b ->
  let matrices =
    List.map
      (fun ((safe, pte_count) as key) -> (key, micro_matrix b ~safe ~pte_count))
      [ (true, 1); (true, 10); (false, 1); (false, 10) ]
  in
  fun () ->
    let cell ~safe ~pte_count =
      let get = List.assoc (safe, pte_count) matrices in
      let cells = List.assoc Microbench.Cross_socket (get ()) in
      let first = snd (List.hd cells) in
      let last = snd (List.nth cells (List.length cells - 1)) in
      let cut pick = Report.reduction ~baseline:(pick first) (pick last) in
      Printf.sprintf "%s / %s"
        (cut (fun r -> r.Microbench.initiator_mean))
        (cut (fun r -> r.Microbench.responder_mean))
    in
    let s1 = cell ~safe:true ~pte_count:1 in
    let s10 = cell ~safe:true ~pte_count:10 in
    let u1 = cell ~safe:false ~pte_count:1 in
    let u10 = cell ~safe:false ~pte_count:10 in
    ( Report.table
        ~title:
          "Table 3 — [initiator / responder] latency reduction, cross-socket, all \
           techniques of §3 (paper: safe 39%/13% & 58%/22%; unsafe 39%/18% & 54%/14%)"
        ~header:[ ""; "Safe Mode"; "Unsafe Mode" ]
        [ [ "1 PTE"; s1; u1 ]; [ "10 PTEs"; s10; u10 ] ],
      [] )

(* ----- Figure 9: CoW fault latency ----- *)

let fig9_plan () =
  Shard.plan "fig9" @@ fun b ->
  let run_cell ~safe ~label opts =
    let cfg = Cow_bench.default_config ~opts in
    let cfg =
      if !quick then { cfg with Cow_bench.rounds = 4; pages_per_round = 32 } else cfg
    in
    let get =
      Shard.memo_cell b cow_memo ~key:(Cow_bench.config_key cfg)
        ~label:(Printf.sprintf "fig9 %s %s" (if safe then "safe" else "unsafe") label)
        ~ops:(fun r -> r.Cow_bench.engine_ops)
        ~weight:(float_of_int (cfg.Cow_bench.rounds * cfg.Cow_bench.pages_per_round * 12))
        (fun () -> Cow_bench.run cfg)
    in
    fun () ->
      let r = get () in
      ( (if safe then "safe" else "unsafe"),
        label,
        r.Cow_bench.write_mean,
        r.Cow_bench.write_sd )
  in
  let row_getters =
    List.concat_map
      (fun safe ->
        let baseline = run_cell ~safe ~label:"baseline" (Opts.baseline ~safe) in
        let all = run_cell ~safe ~label:"all (SS3)" (Opts.all_general ~safe) in
        let cow_opts =
          Opts.map_paper
            (fun p -> { p with Opts.cow_avoid_flush = true })
            (Opts.all_general ~safe)
        in
        let cow = run_cell ~safe ~label:"all + CoW" cow_opts in
        [ baseline; all; cow ])
      [ true; false ]
  in
  fun () ->
    ( Report.table
        ~title:
          "Figure 9 — CoW write latency, cycles (paper: CoW avoidance saves ~130 \
           cycles, 3-5%)"
        ~header:[ "mode"; "config"; "cycles"; "sd" ]
        (List.map
           (fun g ->
             let mode, label, mean, sd = g () in
             [ mode; label; Report.cycles mean; Printf.sprintf "%.0f" sd ])
           row_getters),
      [] )

(* ----- Figures 10 and 11 (lib/workloads/figures.ml builds the plans) ----- *)

let fig10_plan () =
  Figures.fig10_plan ~memo:sysbench_memo (Figures.fig10_scale ~quick:!quick)

let fig11_plan () = Figures.fig11_plan ~memo:apache_memo (Figures.fig11_scale ~quick:!quick)

(* ----- Table 2: lines of code ----- *)

let table2_plan () =
  (* Our implementation sizes: the lines between each optimization's loc
     markers in lib/core, counted at build time (bench/loc_gen.ml); the
     paper's patch sizes alongside. No simulation, so the perf row carries
     engine_ops null. *)
  let rows_spec =
    [
      ("Concurrent flushes", "103", "concurrent-flushes");
      ("Early ack + cacheline consolidation", "73", "early-ack-consolidation");
      ("In-context page flushing", "353", "in-context-flush");
      ("CoW", "35", "cow");
      ("Userspace-safe batching", "221", "batching");
    ]
  in
  Shard.plan "table2" @@ fun b ->
  let get =
    Shard.cell b ~label:"table2 wc" ~weight:1000.0 (fun () ->
        List.map
          (fun (name, paper, region) ->
            [ name; paper; string_of_int (List.assoc region Table2_loc.counts) ])
          rows_spec)
  in
  fun () ->
    ( Report.table
        ~title:"Table 2 — lines of code per optimization (paper patch vs this repo)"
        ~header:[ "Optimization"; "paper LoC"; "this repo (marked LoC)" ]
        (get ()),
      [] )

(* ----- Table 4: page fracturing ----- *)

let table4_plan () =
  let cfg =
    if !quick then { Fracture.working_set_pages = 512; rounds = 40; tlb_capacity = 1536 }
    else { Fracture.working_set_pages = 1024; rounds = 100; tlb_capacity = 1536 }
  in
  (* One cell per VM shape; no engine is driven (pure TLB modelling). *)
  Shard.plan "table4" @@ fun b ->
  let cells =
    List.map
      (fun shape ->
        Shard.cell b
          ~label:(Printf.sprintf "table4 %s" shape.Fracture.label)
          ~weight:(float_of_int (cfg.Fracture.working_set_pages * cfg.Fracture.rounds / 2))
          (fun () -> Fracture.run_shape cfg shape))
      Fracture.table4_rows
  in
  fun () ->
    ( Report.table
        ~title:
          "Table 4 — dTLB misses after full vs selective flush (paper's anomaly: \
           guest-2M-on-host-4K makes selective ~= full)"
        ~header:[ "configuration"; "full flush"; "selective flush"; "promoted-to-full" ]
        (List.map
           (fun get ->
             let r = get () in
             [
               r.Fracture.shape.Fracture.label;
               Report.count r.Fracture.full_misses;
               Report.count r.Fracture.selective_misses;
               Report.count r.Fracture.fracture_promotions;
             ])
           cells),
      [] )

(* ----- Ablations: design choices DESIGN.md calls out ----- *)

(* A cross-socket microbenchmark cell at the figures' iteration count. *)
let micro_cell ?costs b ~label ~opts ~pte_count =
  Figures.micro_cell ?costs b ~memo:micro_memo ~label ~opts
    ~placement:Microbench.Cross_socket ~pte_count ~iterations:(micro_iters ())

let ablation_single_opt_plan () =
  (* Each optimization alone (non-cumulative), cross-socket, safe, 10 PTEs:
     isolates each technique's contribution without stacking. The baseline
     coincides with fig6's cross-socket baseline cell, so in an `all` run
     it is read from the memo rather than recomputed. *)
  Shard.plan "ablation-A" @@ fun b ->
  let cell ~label opts =
    micro_cell b ~label:("ablation-A " ^ label) ~opts ~pte_count:10
  in
  let base = cell ~label:"baseline" (Opts.baseline ~safe:true) in
  let techniques =
    List.map
      (fun sw ->
        let label = sw.Opts.name ^ " alone" in
        (label, cell ~label (sw.Opts.set (Opts.baseline ~safe:true) true)))
      Opts.general
  in
  fun () ->
    let base = base () in
    let rows =
      List.map
        (fun (label, get) ->
          let r = get () in
          [
            label;
            Report.cycles r.Microbench.initiator_mean;
            Report.reduction ~baseline:base.Microbench.initiator_mean
              r.Microbench.initiator_mean;
            Report.cycles r.Microbench.responder_mean;
            Report.reduction ~baseline:base.Microbench.responder_mean
              r.Microbench.responder_mean;
          ])
        techniques
    in
    ( Report.table
        ~title:
          (Printf.sprintf
             "Ablation A — each §3 technique alone (cross-socket, safe, 10 PTEs; \
              baseline init=%s resp=%s)"
             (Report.cycles base.Microbench.initiator_mean)
             (Report.cycles base.Microbench.responder_mean))
        ~header:[ "technique"; "initiator"; "init cut"; "responder"; "resp cut" ]
        rows,
      [] )

let ablation_ipi_latency_plan () =
  (* §2.3.2: works evaluated without multicast IPIs saw ~500k-cycle
     shootdowns; scaling IPI latency shows how the case for *avoiding*
     shootdowns (rather than speeding them up) depends on slow IPIs. *)
  let scaled k =
    {
      Costs.default with
      Costs.ipi_fixed = Costs.default.Costs.ipi_fixed * k;
      ipi_smt = Costs.default.Costs.ipi_smt * k;
      ipi_same_socket = Costs.default.Costs.ipi_same_socket * k;
      ipi_cross_socket = Costs.default.Costs.ipi_cross_socket * k;
    }
  in
  (* The x1 rows are value-identical to fig6's cross-socket baseline and
     +in-context matrix cells (scaling by 1 is the default cost model), so
     the memo reuses them in an `all` run. *)
  Shard.plan "ablation-B" @@ fun b ->
  let cell ~k ~label opts =
    let get =
      micro_cell ~costs:(scaled k) b
        ~label:(Printf.sprintf "ablation-B x%d %s" k label)
        ~opts ~pte_count:10
    in
    fun () -> (get ()).Microbench.initiator_mean
  in
  let row_getters =
    List.map
      (fun k ->
        let base = cell ~k ~label:"baseline" (Opts.baseline ~safe:true) in
        let all = cell ~k ~label:"all" (Opts.all_general ~safe:true) in
        (k, base, all))
      [ 1; 4; 16; 64 ]
  in
  fun () ->
    let rows =
      List.map
        (fun (k, base, all) ->
          let base = base () and all = all () in
          [
            Printf.sprintf "x%d" k;
            Report.cycles base;
            Report.cycles all;
            Report.reduction ~baseline:base all;
          ])
        row_getters
    in
    ( Report.table
        ~title:
          "Ablation B — IPI-latency sensitivity (initiator, cross-socket, safe, 10 \
           PTEs): with slow pre-x2APIC IPIs the protocol work the paper optimizes \
           is noise, which is §2.3.2's point about older evaluations"
        ~header:[ "IPI scale"; "baseline"; "all §3"; "reduction" ]
        rows,
      [] )

(* A sysbench cell at fig10's scale and first seed, so a row whose config
   matches a fig10 point is that point's cell. *)
let fig10_scale_cell b ~label ~opts ~threads =
  let scale = Figures.fig10_scale ~quick:!quick in
  Figures.sysbench_cell b ~memo:sysbench_memo scale ~label ~opts ~threads
    ~seed:(List.hd scale.Figures.sys_seeds)

let ablation_batch_slots_plan () =
  (* Runs at fig10's scale (ops, file pages, first seed) so the slots=4
     row — the paper's allocation, fig10's +batching config — is the same
     cell as fig10's 8-thread point and comes from the memo in a full
     `all` run instead of being recomputed. *)
  Shard.plan "ablation-C" @@ fun b ->
  let cells =
    List.map
      (fun slots ->
        let opts =
          Opts.map_paper (fun p -> { p with Opts.batch_slots = slots }) (Opts.all ~safe:true)
        in
        ( slots,
          fig10_scale_cell b ~label:(Printf.sprintf "ablation-C slots=%d" slots) ~opts
            ~threads:8 ))
      [ 1; 2; 4; 8; 16 ]
  in
  fun () ->
    let rows =
      List.map
        (fun (slots, get) ->
          let r = get () in
          [
            string_of_int slots;
            Printf.sprintf "%.3f" r.Sysbench.throughput;
            string_of_int r.Sysbench.shootdowns;
            string_of_int r.Sysbench.batched_deferrals;
          ])
        cells
    in
    ( Report.table
        ~title:
          "Ablation C — §4.2 batch slots (sysbench, 8 threads, safe, fig10 scale; \
           the paper allocates 4)"
        ~header:[ "slots"; "ops/kcyc"; "shootdowns"; "deferrals" ]
        rows,
      [] )

let ablation_full_flush_threshold_plan () =
  (* madvise of 24 pages: below the threshold the kernel INVLPGs 24 entries
     per CPU; above it one cheap CR3 reload flushes everything — faster for
     the flusher, but every other cached translation is collateral (§2.1:
     Linux picks 33, FreeBSD 4096). *)
  Shard.plan "ablation-D" @@ fun b ->
  let cell ~threshold ~safe =
    let opts = { (Opts.all_general ~safe) with Opts.full_flush_threshold = threshold } in
    let get =
      micro_cell b
        ~label:
          (Printf.sprintf "ablation-D t=%d %s" threshold
             (if safe then "safe" else "unsafe"))
        ~opts ~pte_count:24
    in
    fun () ->
      let r = get () in
      (r.Microbench.initiator_mean, r.Microbench.responder_mean)
  in
  let row_getters =
    List.map
      (fun threshold ->
        let s = cell ~threshold ~safe:true in
        let u = cell ~threshold ~safe:false in
        (threshold, s, u))
      [ 8; 16; 33; 64 ]
  in
  fun () ->
    let rows =
      List.map
        (fun (threshold, s, u) ->
          let si, sr = s () and ui, ur = u () in
          [
            string_of_int threshold;
            (if threshold < 24 then "full" else "ranged");
            Report.cycles si;
            Report.cycles sr;
            Report.cycles ui;
            Report.cycles ur;
          ])
        row_getters
    in
    ( Report.table
        ~title:
          "Ablation D — full-flush threshold on a 24-page madvise (cross-socket): \
           a full flush is cheaper for the flusher but drops every cached \
           translation"
        ~header:
          [ "threshold"; "mode"; "safe init"; "safe resp"; "unsafe init"; "unsafe resp" ]
        rows,
      [] )

let ablation_paravirt_fracture_plan () =
  (* §7's proposed mitigation: a host-provided fracturing hint makes the
     guest use one full flush instead of n selective flushes that would be
     promoted to full anyway. Pure TLB modelling: no engine ops. *)
  let cfg = { Fracture.working_set_pages = 512; rounds = 1; tlb_capacity = 1536 } in
  let shape = List.nth Fracture.table4_rows 1 (* host=4K guest=2M *) in
  let flush_count = 16 in
  let run ~hint () =
    let mmu = Fracture.build_mmu_for_tests cfg shape in
    Nested_mmu.set_paravirt_fracture_hint mmu hint;
    ignore
      (Nested_mmu.touch_range mmu ~start_vpn:Fracture.base_vpn
         ~pages:cfg.Fracture.working_set_pages);
    let instructions =
      Nested_mmu.flush_pages mmu
        ~vpns:(List.init flush_count (fun i -> Fracture.base_vpn + (i * 3)))
    in
    let _, misses =
      Nested_mmu.touch_range mmu ~start_vpn:Fracture.base_vpn
        ~pages:cfg.Fracture.working_set_pages
    in
    (instructions, misses)
  in
  Shard.plan "paravirt" @@ fun b ->
  let get_no = Shard.cell b ~label:"paravirt unhinted" ~weight:1000.0 (run ~hint:false) in
  let get_yes = Shard.cell b ~label:"paravirt hinted" ~weight:1000.0 (run ~hint:true) in
  fun () ->
    let i_no, m_no = get_no () in
    let i_yes, m_yes = get_yes () in
    ( Report.table
        ~title:
          "Extension (§7) — paravirtual fracturing hint: flushing 16 pages of a \
           fractured guest working set"
        ~header:[ "guest behaviour"; "flush instructions"; "misses on re-touch" ]
        [
          [ "16 selective flushes (unhinted)"; string_of_int i_no; Report.count m_no ];
          [ "1 full flush (hinted)"; string_of_int i_yes; Report.count m_yes ];
        ],
      [] )

let ablation_freebsd_plan () =
  (* §3.3 dismisses FreeBSD's scheme because smp_ipi_mtx admits one
     shootdown machine-wide; under concurrent mutators the serialization
     shows up directly. Runs at fig10's scale so the Linux rows (baseline
     and all-six) coincide with fig10's 2- and 8-thread points and, in a
     full `all` run, come from the memo; only the FreeBSD rows are new
     simulation work. *)
  Shard.plan "ablation-E" @@ fun b ->
  let cells =
    List.concat_map
      (fun threads ->
        List.map
          (fun (label, opts) ->
            ( label,
              threads,
              fig10_scale_cell b
                ~label:(Printf.sprintf "ablation-E %s t=%d" label threads)
                ~opts ~threads ))
          [
            ("Linux baseline", Opts.baseline ~safe:true);
            ("FreeBSD (smp_ipi_mtx)", Opts.freebsd ~safe:true);
            ("Linux + all six", Opts.all ~safe:true);
          ])
      [ 2; 8 ]
  in
  fun () ->
    let rows =
      List.map
        (fun (label, threads, get) ->
          [ label; string_of_int threads; Printf.sprintf "%.3f" (get ()).Sysbench.throughput ])
        cells
    in
    ( Report.table
        ~title:
          "Ablation E — protocol comparison on sysbench (safe mode, fig10 scale): \
           FreeBSD's global shootdown mutex vs Linux's concurrent protocol vs the \
           paper's optimizations"
        ~header:[ "protocol"; "threads"; "ops/kcyc" ]
        rows,
      [] )

let ablation_tasks =
  [
    ("ablation-A", ablation_single_opt_plan);
    ("ablation-B", ablation_ipi_latency_plan);
    ("ablation-C", ablation_batch_slots_plan);
    ("ablation-D", ablation_full_flush_threshold_plan);
    ("ablation-E", ablation_freebsd_plan);
    ("paravirt", ablation_paravirt_fracture_plan);
  ]

(* ----- Big-machine scaling (DESIGN.md §12) ----- *)

let bigmachine_plan () =
  Shard.plan "bigmachine" @@ fun b ->
  let cells =
    List.map
      (fun n_cpus ->
        ( n_cpus,
          Figures.bigmachine_cell b ~memo:bigmachine_memo ~quick:!quick
            ~label:(Printf.sprintf "bigmachine %d" n_cpus)
            ~opts:(Opts.all ~safe:true) ~n_cpus ))
      Bigmachine.sizes
  in
  fun () ->
    let results = List.map (fun (n, get) -> (n, get ())) cells in
    ( Report.table
        ~title:
          "Big-machine scaling — identical multi-tenant churn, growing machine \
           (flat cycles/shootdown = O(active CPUs) hot paths)"
        ~header:
          [ "cpus"; "threads"; "shootdowns"; "IPIs"; "ICR writes"; "cycles/shootdown" ]
        (List.map
           (fun (n, r) ->
             [
               string_of_int n;
               string_of_int r.Bigmachine.threads;
               string_of_int r.Bigmachine.shootdowns;
               string_of_int r.Bigmachine.ipis;
               string_of_int r.Bigmachine.icr_writes;
               Printf.sprintf "%.0f" r.Bigmachine.cycles_per_shootdown;
             ])
           results),
      List.map
        (fun (n, r) ->
          Bench_perf.(
            row "bigmachine" (Printf.sprintf "bigmachine-%d" n)
              [
                ("n_cpus", int n);
                ("threads", int r.Bigmachine.threads);
                ("ops", int r.Bigmachine.ops);
                ("shootdowns", int r.Bigmachine.shootdowns);
                ("ipis", int r.Bigmachine.ipis);
                ("icr_writes", int r.Bigmachine.icr_writes);
                ("churns", int r.Bigmachine.churns);
                ("cycles_per_shootdown", Some r.Bigmachine.cycles_per_shootdown);
                ("engine_ops", int r.Bigmachine.engine_ops);
              ]))
        results )

(* ----- Shootout: protocol-backend comparison (DESIGN.md §13) ----- *)

(* lib/workloads/shootout.ml builds both reports, tables and rows, which
   `tlbsim shootout` prints too. *)

let shootout_plan () =
  Shard.plan "shootout" @@ fun b -> Shootout.plan_cells b ~iterations:(micro_iters ()) ()

(* Planned LAST (see [all_tasks]): the paper backend's cells are
   value-identical to fig10/fig11's "+batching" stack and the bigmachine
   56-CPU config, so in an `all` run they are owned by those earlier plans
   and every paper row reads from the memo. *)
let shootout_workloads_plan () =
  Shard.plan "shootout-workloads" @@ fun b ->
  Shootout.workload_cells b ~sysbench_memo ~apache_memo ~bigmachine_memo ~quick:!quick ()

(* ----- Bechamel: wall-clock self-measurement of the harness ----- *)

(* Bechamel's own minor-allocation measure reads [Gc.quick_stat], whose
   [minor_words] on OCaml 5.1 advances only at a minor collection: under
   the harness's large minor heap most runs see none and report 0 words.
   [Gc.minor_words] also counts the current minor heap's allocation. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "words"
end

let bechamel () =
  let open Bechamel in
  let micro_test =
    Test.make ~name:"figs5-8:microbench-cell"
      (Staged.stage (fun () ->
           let cfg =
             Microbench.default_config
               ~opts:(Opts.all_general ~safe:true)
               ~placement:Microbench.Cross_socket ~pte_count:10
           in
           ignore (Microbench.run { cfg with Microbench.iterations = micro_iters (); warmup = 20 })))
  in
  let cow_test =
    Test.make ~name:"fig9:cow-bench"
      (Staged.stage (fun () ->
           let cfg = Cow_bench.default_config ~opts:(Opts.all ~safe:true) in
           ignore (Cow_bench.run { cfg with Cow_bench.rounds = 2; pages_per_round = 16 })))
  in
  let sysbench_test =
    Test.make ~name:"fig10:sysbench-point"
      (Staged.stage (fun () ->
           let cfg = Sysbench.default_config ~opts:(Opts.all ~safe:true) ~threads:4 in
           ignore
             (Sysbench.run { cfg with Sysbench.ops_per_thread = 40; file_pages = 128 })))
  in
  let apache_test =
    Test.make ~name:"fig11:apache-point"
      (Staged.stage (fun () ->
           let cfg = Apache.default_config ~opts:(Opts.all ~safe:true) ~cores:4 in
           ignore (Apache.run { cfg with Apache.requests = 60 })))
  in
  let fracture_test =
    Test.make ~name:"table4:fracture-row"
      (Staged.stage (fun () ->
           ignore
             (Fracture.run_shape
                { Fracture.working_set_pages = 256; rounds = 10; tlb_capacity = 1536 }
                (List.hd Fracture.table4_rows))))
  in
  (* Engine primitives. Both runs schedule one same-cycle event and
     dispatch it, so the clock never moves; the second then asks
     [try_advance] whether the clock could skip ahead while a ring event
     2000 cycles out is pending: the next-event search a [Process.delay]
     pays after every near event. The difference between the two is the
     cost of that search. *)
  let engine_with_handler () =
    let e = Engine.create () in
    (e, Engine.register_handler e (fun _ _ -> ()))
  in
  let dispatch_test =
    let e, tag = engine_with_handler () in
    Test.make ~name:"engine:schedule_tag+dispatch"
      (Staged.stage (fun () ->
           Engine.schedule_tag e ~delay:0 ~tag ~a:0 ~b:0;
           ignore (Engine.step e)))
  in
  let advance_test =
    let e, tag = engine_with_handler () in
    Engine.schedule_tag e ~delay:2000 ~tag ~a:0 ~b:0;
    Test.make ~name:"engine:try_advance (far event pending)"
      (Staged.stage (fun () ->
           Engine.schedule_tag e ~delay:0 ~tag ~a:0 ~b:0;
           ignore (Engine.step e);
           ignore (Engine.try_advance e ~cycles:0)))
  in
  (* Process primitives. Two processes loop on [delay 3]: each finds the
     other's wake-up inside its window, so one [step] is one suspended
     delay (resume, run to the next [delay], suspend). A waiter loops on
     [Waitq.wait]; one run signals it and steps the wake event, which
     resumes it into its next wait. *)
  let delay_test =
    let e = Engine.create () in
    let body () =
      while true do
        Process.delay e 3
      done
    in
    Process.spawn e ~name:"a" body;
    Process.spawn e ~name:"b" body;
    Test.make ~name:"process:delay (suspending)"
      (Staged.stage (fun () -> ignore (Engine.step e)))
  in
  let wait_test =
    let e = Engine.create () in
    let q = Waitq.create e in
    Process.spawn e ~name:"waiter" (fun () ->
        while true do
          Waitq.wait q
        done);
    ignore (Engine.step e);
    Test.make ~name:"waitq:wait+signal"
      (Staged.stage (fun () ->
           Waitq.signal_one q;
           ignore (Engine.step e)))
  in
  (* An engine event every [period] cycles, from a handler that reschedules
     itself: a process would spin on the [try_advance] fast path whenever
     it is alone on the engine. *)
  let ticker e ~period =
    let tag = ref (-1) in
    tag :=
      Engine.register_handler e (fun _ _ ->
          Engine.schedule_tag e ~delay:period ~tag:!tag ~a:0 ~b:0);
    Engine.schedule_tag e ~delay:period ~tag:!tag ~a:0 ~b:0
  in
  (* A run of 8 charges of 3 cycles each, as 8 delays and as one chain. A
     tick every 2 cycles puts an event in every window: each delay
     suspends, and the chain suspends once. One run is one run of 8 (24
     cycles, 12 ticks). *)
  let contended body =
    let e = Engine.create () in
    ticker e ~period:2;
    Process.spawn e ~name:"charges" (fun () -> body e);
    Staged.stage (fun () -> Engine.run_until e ~time:(Engine.now e + 24))
  in
  let chain_test =
    Test.make ~name:"process:chain (8 steps, contended)"
      (contended (fun e ->
           while true do
             Process.chain_upto e ~lead:0 8 ~phases:1 (fun _ _ -> 3)
           done))
  in
  let delays_test =
    Test.make ~name:"process:delay x8 (contended)"
      (contended (fun e ->
           while true do
             for _ = 1 to 8 do
               Process.delay e 3
             done
           done))
  in
  (* An IRQ whose handler is one 50-cycle step, posted to an idle CPU:
     one detached dispatch (entry boundary, the handler's boundary, exit
     boundary) with nothing else on the engine, so every cost takes the
     [try_advance] fast path. *)
  let step_irq () =
    let step _ k = if k = 0 then 50 else -1 in
    { Cpu.vector = 1; maskable = true; step }
  in
  let irq_dispatch_test =
    let e = Engine.create () in
    let cpu = Cpu.create e (Topology.flat 2) Costs.default ~id:1 ~safe:false () in
    let irq = step_irq () in
    Test.make ~name:"cpu:detached irq dispatch"
      (Staged.stage (fun () ->
           Cpu.post_irq cpu irq;
           Engine.run e))
  in
  (* The same dispatch with a tick every 150 cycles, so the entry (320
     cycles from user) and exit (200) windows each hold an event and
     neither takes the fast path. One run is one dispatch and 4 ticks. *)
  let irq_dispatch_contended_test =
    let e = Engine.create () in
    let cpu = Cpu.create e (Topology.flat 2) Costs.default ~id:1 ~safe:false () in
    let irq = step_irq () in
    ticker e ~period:150;
    Test.make ~name:"cpu:detached irq dispatch (contended)"
      (Staged.stage (fun () ->
           Cpu.post_irq cpu irq;
           Engine.run_until e ~time:(Engine.now e + 600)))
  in
  (* Page-table primitives on a table that maps one page: a map and an
     unmap that frees the three tables under it, then an in-place PTE
     update, the CoW-break and write-protect path. *)
  let pt_map_unmap_test =
    let pt = Page_table.create () in
    let pte = Pte.user_data ~pfn:1 in
    Test.make ~name:"page_table:map+unmap (frees a table)"
      (Staged.stage (fun () ->
           Page_table.map pt ~vpn:10 ~size:Tlb.Four_k pte;
           ignore (Page_table.unmap pt ~vpn:10 ~free_tables:true ())))
  in
  let pt_update_test =
    let pt = Page_table.create () in
    Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
    Test.make ~name:"page_table:update"
      (Staged.stage (fun () -> ignore (Page_table.update pt ~vpn:10 ~f:Pte.write_protect)))
  in
  (* Two CPUs each loop on [Cpu.compute] of ten idle 200-cycle quanta. Their
     quantum boundaries interleave, so no boundary takes the fast path
     alone. One run is 2000 cycles, one compute call on each CPU (counted
     in cycles, not engine steps: a step may step through the other CPU's
     idle boundaries). *)
  let compute_test =
    let e = Engine.create () in
    let topo = Topology.flat 2 in
    for id = 0 to 1 do
      let cpu = Cpu.create e topo Costs.default ~id ~safe:false () in
      Process.spawn e ~name:"compute" (fun () ->
          while true do
            Cpu.compute cpu 2000
          done)
    done;
    Test.make ~name:"cpu:compute (idle quanta)"
      (Staged.stage (fun () -> Engine.run_until e ~time:(Engine.now e + 2000)))
  in
  (* An idle user-mode stretch of 100-cycle chunks in 50-cycle quanta, as
     [Cpu.compute] called in a loop and as one [Cpu.compute_until], with an
     engine event every 30 cycles so no quantum takes the fast path. The
     flag never flips; one run is 1000 cycles (10 chunks, 33 ticks). *)
  let idle_stretch spin =
    let e = Engine.create () in
    let cpu = Cpu.create e (Topology.flat 2) Costs.default ~id:1 ~safe:false () in
    let flag = ref false in
    ticker e ~period:30;
    Process.spawn e ~name:"spinner" (fun () -> spin cpu (fun () -> !flag));
    Staged.stage (fun () -> Engine.run_until e ~time:(Engine.now e + 1000))
  in
  let compute_until_test =
    Test.make ~name:"cpu:compute_until (idle, contended)"
      (idle_stretch (fun cpu until -> Cpu.compute_until cpu ~quantum:50 ~chunk:100 until))
  in
  let compute_loop_test =
    Test.make ~name:"cpu:compute loop (idle, contended)"
      (idle_stretch (fun cpu until ->
           while not (until ()) do
             Cpu.compute cpu ~quantum:50 100
           done))
  in
  (* Four CPUs spin in [Cpu.compute_until] (50-cycle quanta, 100-cycle
     chunks) and a fifth polls in [Cpu.poll_wait], none ever woken: every
     quantum and poll boundary is an idle one, and the five schedules
     interleave, so none takes the fast path alone. [run_until]'s time
     bounds each run. One run is 1000 cycles (80 quantum and 25 poll
     boundaries). *)
  let idle_spinners_test =
    let e = Engine.create () in
    let topo = Topology.flat 5 in
    let never () = false in
    for id = 0 to 3 do
      let cpu = Cpu.create e topo Costs.default ~id ~safe:false () in
      Process.spawn e ~name:"spinner" (fun () ->
          Cpu.compute_until cpu ~quantum:50 ~chunk:100 never)
    done;
    let cpu = Cpu.create e topo Costs.default ~id:4 ~safe:false () in
    Process.spawn e ~name:"poller" (fun () -> Cpu.poll_wait cpu never);
    Test.make ~name:"cpu:idle spins (4 spinners + 1 poller)"
      (Staged.stage (fun () -> Engine.run_until e ~time:(Engine.now e + 1000)))
  in
  (* One 750-cycle [try_advance] across three bare spins that never wake:
     the fuzz driver's 200-cycle op wait beside two workers' 50-cycle
     quanta, at three phases. One run is one walk through about 34 spin
     boundaries. *)
  let walk_test =
    let e = Engine.create () in
    let never () = false in
    List.iter
      (fun (quantum, phase) ->
        Process.spawn e ~name:"spinner" (fun () ->
            Process.delay e phase;
            ignore (Process.spin e ~quantum ~chunk:quantum ~left:quantum never never : int)))
      [ (200, 0); (50, 10); (50, 35) ];
    Engine.run_until e ~time:100;
    Test.make ~name:"engine:walk (3 idle spins 200/50/50, 750-cycle window)"
      (Staged.stage (fun () -> ignore (Engine.try_advance e ~cycles:750 : bool)))
  in
  (* A first map into a fresh tree: three new tables and the root's first
     chunk. *)
  let pt_fresh_map_test =
    let pte = Pte.user_data ~pfn:1 in
    Test.make ~name:"page_table:map (fresh tree)"
      (Staged.stage (fun () ->
           Page_table.map (Page_table.create ()) ~vpn:10 ~size:Tlb.Four_k pte))
  in
  (* A full flush of a TLB whose tables grew to hold its capacity: one
     insert, then the flush clears that entry's index run, not the grown
     index. *)
  let tlb_flush_test =
    let t = Tlb.create () in
    let entry vpn =
      {
        Tlb.vpn;
        pfn = vpn;
        pcid = 1;
        size = Tlb.Four_k;
        global = false;
        writable = true;
        fractured = false;
        ck_ver = -1;
      }
    in
    for vpn = 0 to Tlb.capacity t - 1 do
      Tlb.insert t (entry vpn)
    done;
    let e = entry 0 in
    Test.make ~name:"tlb:flush_all (grown table)"
      (Staged.stage (fun () ->
           Tlb.insert t e;
           Tlb.flush_all t))
  in
  let machine_create_test =
    let sockets, cores_per_socket, smt = Bigmachine.topo_of_cpus 1024 in
    let topo = Topology.create ~sockets ~cores_per_socket ~smt in
    let opts = Opts.all ~safe:true in
    Test.make ~name:"machine:create (1024 cpus)"
      (Staged.stage (fun () -> ignore (Machine.create ~topo ~opts ())))
  in
  (* Coherence pricing on the paper machine: a write by cpu 0 invalidates
     the line, then every other CPU reads it, so the sharer set grows back
     to all 56, each read ranked against the holders so far. One run is
     the write and the 55 reads. *)
  let cache_read_test =
    let topo = Topology.paper_machine in
    let reg = Cache.create_registry topo Costs.default in
    let l = Cache.create_line reg in
    let n = Topology.n_cpus topo in
    Test.make ~name:"cache:read (56 sharers)"
      (Staged.stage (fun () ->
           ignore (Cache.write l ~by:0);
           for by = 1 to n - 1 do
             ignore (Cache.read l ~by)
           done))
  in
  (* A sync-broadcast status line on a 1024-CPU machine: cpu 0 posts
     (a write), every responder reads the line, then every responder sets
     its done bit with an atomic. One run is the write, the 1023 reads and
     the 1023 atomics. Each access is priced in O(SMT threads), so a return
     to a scan over the sharers shows here as a cost in [Hw.Cache] growing
     with the machine. *)
  let cache_status_line_test =
    let sockets, cores_per_socket, smt = Bigmachine.topo_of_cpus 1024 in
    let topo = Topology.create ~sockets ~cores_per_socket ~smt in
    let reg = Cache.create_registry topo Costs.default in
    let l = Cache.create_line reg in
    let n = Topology.n_cpus topo in
    Test.make ~name:"cache:status line (1024 cpus)"
      (Staged.stage (fun () ->
           ignore (Cache.write l ~by:0);
           for by = 1 to n - 1 do
             ignore (Cache.read l ~by)
           done;
           for by = 1 to n - 1 do
             ignore (Cache.atomic l ~by)
           done))
  in
  (* A sync-broadcast shootdown of one page from cpu 0 of the 1024-CPU
     machine, every other CPU idle: the status-line post, 1023 IPIs, and
     1023 detached responders, each one IRQ whose handler is one charge run
     stepped by its CPU's dispatch events (a skipped flush: the status read
     and the done-bit atomic), then the initiator's wait and release. One
     run is one broadcast. *)
  let sync_broadcast_test =
    let sockets, cores_per_socket, smt = Bigmachine.topo_of_cpus 1024 in
    let topo = Topology.create ~sockets ~cores_per_socket ~smt in
    let opts = Opts.with_protocol Opts.Sync_broadcast ~safe:true in
    let m = Machine.create ~topo ~opts () in
    let mm = Machine.new_mm m in
    let broadcasts = ref 0 in
    Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
        let vpn = Mm_struct.alloc_va_range mm ~pages:1 () in
        Mm_struct.add_vma mm (Vma.make ~start_vpn:vpn ~pages:1 ());
        Page_table.map (Mm_struct.page_table mm) ~vpn ~size:Tlb.Four_k
          (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames));
        while true do
          Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
          incr broadcasts
        done);
    Test.make ~name:"irq:sync-broadcast broadcast (1024 cpus)"
      (Staged.stage (fun () ->
           let goal = !broadcasts + 1 in
           while !broadcasts < goal do
             ignore (Engine.step m.Machine.engine)
           done))
  in
  (* The responder's drain run: four requests on cpu 1's call queue under
     the baseline layout (per request the CSD read, the info read, a page
     walk, then a work of a 7-cycle charge, the ack write and its
     landing; about 700 cycles), with a tick every 500 cycles so the run
     suspends once. One run drains the four CFDs and puts them back on the
     queue. The four enqueues before any drain leave each earlier request
     busy, so each takes a fresh record from cpu 0's slot. *)
  let drain_test =
    let m =
      Machine.create ~topo:(Topology.flat 4) ~opts:(Opts.baseline ~safe:true) ()
    in
    let e = m.Machine.engine in
    let p1 = Machine.percpu m 1 in
    let drained = ref 0 in
    let lead, visit =
      Smp.drain_queue m ~work:(fun cfd phase ->
          match phase with
          | 0 -> 7
          | 1 ->
              cfd.Percpu.cfd_executed <- true;
              Smp.ack_write m ~me:1 cfd
          | _ ->
              Smp.ack_landed m ~me:1 cfd;
              -1)
    in
    ticker e ~period:500;
    Process.spawn e ~name:"responder" (fun () ->
        let targets = Cpuset.create ~bits:4 in
        Cpuset.set targets 1;
        let info =
          Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~stride:Tlb.Four_k
            ~freed_tables:false ~new_tlb_gen:1
        in
        let cfds =
          Array.init 4 (fun _ ->
              Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false;
              (Machine.percpu m 0).Percpu.csds.(1))
        in
        while true do
          Process.chain_item e ~lead:(lead 1) 1 visit;
          incr drained;
          Array.iter
            (fun cfd ->
              cfd.Percpu.cfd_acked <- false;
              Percpu.csq_push p1 cfd)
            cfds
        done);
    Test.make ~name:"smp:drain (4 queued requests, contended)"
      (Staged.stage (fun () ->
           let goal = !drained + 1 in
           while !drained < goal do
             ignore (Engine.step e)
           done))
  in
  (* A due 4-page ranged flush on cpu 0, as the initiator runs it: the
     generation read, the decision, 4 INVLPGs and (safe mode, eager) 4
     INVPCIDs, the generation update (about 2,700 cycles), with a tick
     every 2,000 cycles so the run suspends once. One run is one flush. *)
  let due_flush_test =
    let m = Machine.create ~topo:(Topology.flat 2) ~opts:(Opts.baseline ~safe:true) () in
    let e = m.Machine.engine in
    let mm = Machine.new_mm m in
    let flushed = ref 0 in
    ticker e ~period:2000;
    Process.spawn e ~name:"flusher" (fun () ->
        Sched.switch_mm m ~cpu:0 mm;
        while true do
          let new_tlb_gen = Mm_struct.bump_tlb_gen mm in
          let info =
            Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:0 ~pages:4 ~stride:Tlb.Four_k
              ~freed_tables:false ~new_tlb_gen
          in
          ignore (Flush_core.flush_tlb_func_impl m ~cpu:0 ~user:Flush_core.Eager info);
          incr flushed
        done);
    Test.make ~name:"flush:due ranged flush (contended)"
      (Staged.stage (fun () ->
           let goal = !flushed + 1 in
           while !flushed < goal do
             ignore (Engine.step e)
           done))
  in
  let test =
    Test.make_grouped ~name:"shootdown-repro"
      [
        micro_test;
        cow_test;
        sysbench_test;
        apache_test;
        fracture_test;
        dispatch_test;
        advance_test;
        delay_test;
        chain_test;
        delays_test;
        wait_test;
        irq_dispatch_test;
        irq_dispatch_contended_test;
        pt_map_unmap_test;
        pt_update_test;
        compute_test;
        compute_until_test;
        compute_loop_test;
        idle_spinners_test;
        walk_test;
        pt_fresh_map_test;
        tlb_flush_test;
        machine_create_test;
        cache_read_test;
        cache_status_line_test;
        sync_broadcast_test;
        drain_test;
        due_flush_test;
      ]
  in
  let clock = Toolkit.Instance.monotonic_clock
  and words =
    Measure.instance (module Minor_words) (Measure.register (module Minor_words))
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ clock; words ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let ns = Analyze.all ols clock raw and minor = Analyze.all ols words raw in
  let estimate results name =
    match Analyze.OLS.estimates (Hashtbl.find results name) with
    | Some [ est ] -> Printf.sprintf "%12.0f" est
    | Some _ | None -> Printf.sprintf "%12s" "-"
  in
  print_endline "\n== Bechamel: harness wall-clock and minor words per run ==";
  Hashtbl.fold (fun name _ acc -> name :: acc) ns []
  |> List.sort String.compare
  |> List.iter (fun name ->
         Printf.printf "  %-56s %s ns/run %s words/run\n" name (estimate ns name)
           (estimate minor name))

(* ----- driver: named experiments, sharded over the domain pool ----- *)

let fig_tasks =
  [
    ("fig5", micro_figure_plan ~fig:5 ~safe:true ~pte_count:1);
    ("fig6", micro_figure_plan ~fig:6 ~safe:true ~pte_count:10);
    ("fig7", micro_figure_plan ~fig:7 ~safe:false ~pte_count:1);
    ("fig8", micro_figure_plan ~fig:8 ~safe:false ~pte_count:10);
  ]

let all_tasks =
  fig_tasks
  @ [
      ("table3", table3_plan);
      ("fig9", fig9_plan);
      ("fig10", fig10_plan);
      ("fig11", fig11_plan);
      ("table2", table2_plan);
      ("table4", table4_plan);
    ]
  @ ablation_tasks
  @ [
      ("bigmachine", bigmachine_plan);
      ("shootout", shootout_plan);
      (* Last on purpose: its paper-backend cells must find fig10/fig11/
         bigmachine already owning the shared memo entries. *)
      ("shootout-workloads", shootout_workloads_plan);
    ]

(* Plan every requested experiment (sequential: the cell memos assign
   shared cells to their first requester), execute all cells on one shared
   pool, reduce in order. *)
let execute ~jobs tasks =
  let plans = List.map (fun (_, build) -> build ()) tasks in
  Shard.execute ~progress:!verbose ~jobs plans

let run_tasks ~jobs tasks =
  let outcomes = execute ~jobs tasks in
  List.iter
    (fun o ->
      let m = o.Shard.out_measure in
      Printf.eprintf "[bench] %-12s %7.2fs cpu  %4d run(s)  slowest %5.2fs\n%!"
        o.Shard.out_name m.Shard.wall_s m.Shard.runs m.Shard.max_wall_s;
      print_string o.Shard.output)
    outcomes

(* ----- perf: wall-clock harness, BENCH_PERF.json ----- *)

(* Per-phase shootdown latency percentiles from a small metered Observe
   sweep, run after the (unmetered) experiments so their timing rows are
   untouched. *)
let phases_rows ~jobs =
  let metrics = Observe.collect ~iterations:(if !quick then 50 else 200) ~jobs () in
  List.filter_map
    (fun s ->
      let st = Metrics.stats s in
      if Stats.count st = 0 then None
      else
        let labels =
          Metrics.series_labels s
          |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
          |> String.concat ","
        in
        let id =
          if String.equal labels "" then Metrics.series_name s
          else Printf.sprintf "%s{%s}" (Metrics.series_name s) labels
        in
        Some
          Bench_perf.(
            row "phases" id
              [
                ("count", int (Stats.count st));
                ("p50", Stats.percentile_opt st 50.0);
                ("p99", Stats.percentile_opt st 99.0);
              ]))
    (Metrics.all metrics)

(* One "experiments" row per plan: the host cost of the cells it owns.
   A plan that also reads cells an earlier plan owns still measures its
   own exactly, so only a plan that ran none of its own is memoized. *)
let experiment_row o =
  let m = o.Shard.out_measure in
  let ops = Option.map float_of_int m.Shard.engine_ops in
  Bench_perf.(
    row "experiments" o.Shard.out_name ~memoized:(m.Shard.runs = 0)
      [
        ("wall_s", Some m.Shard.wall_s);
        ("max_run_wall_s", Some m.Shard.max_wall_s);
        ("runs", int m.Shard.runs);
        ("reused", int o.Shard.out_reused);
        ("engine_ops", ops);
        ( "engine_ops_per_s",
          Option.map (fun ops -> ops /. Float.max 1e-9 m.Shard.wall_s) ops );
        (* Deterministic: the gate compares it raw. *)
        ("suspensions", int m.Shard.suspensions);
        ("minor_words", Some m.Shard.minor_words);
        ("major_words", Some m.Shard.major_words);
        ("promoted_words", Some m.Shard.promoted_words);
        (* Deterministic, unlike wall time: the gate compares it raw. *)
        ( "minor_words_per_engine_op",
          Option.bind ops (fun ops ->
              if ops > 0.0 then Some (m.Shard.minor_words /. ops) else None) );
      ])

let perf ~jobs () =
  let t0 = Unix.gettimeofday () in
  let outcomes = execute ~jobs all_tasks in
  let elapsed = Unix.gettimeofday () -. t0 in
  List.iter
    (fun o ->
      let m = o.Shard.out_measure in
      let ops_s, rate =
        match m.Shard.engine_ops with
        | None -> ("n/a", "n/a")
        | Some ops ->
            ( Report.count ops,
              Report.cycles (float_of_int ops /. Float.max 1e-9 m.Shard.wall_s) )
      in
      Printf.printf "  %-12s %7.2fs  %11s engine-ops  %8s ops/s  %4d run(s)%s\n%!"
        o.Shard.out_name m.Shard.wall_s ops_s rate m.Shard.runs
        (if o.Shard.out_reused > 0 then
           Printf.sprintf "  [%d memoized]" o.Shard.out_reused
         else ""))
    outcomes;
  let total_wall =
    List.fold_left (fun acc o -> acc +. o.Shard.out_measure.Shard.wall_s) 0.0 outcomes
  in
  let total_ops =
    List.fold_left
      (fun acc o -> acc + Option.value o.Shard.out_measure.Shard.engine_ops ~default:0)
      0 outcomes
  in
  (* Process-lifetime GC totals: after the pool's domains are joined their
     counters have folded into this domain's, so a plain quick_stat here
     sums every domain — the cross-domain aggregate perf mode reports. *)
  let gc = Gc.quick_stat () in
  let run_rows =
    Bench_perf.[
      row "run" "total"
        [
          ("jobs", int jobs);
          ("wall_s", Some total_wall);
          ("elapsed_s", Some elapsed);
          ("engine_ops", int total_ops);
          ( "engine_ops_per_s",
            Some (float_of_int total_ops /. Float.max 1e-9 total_wall) );
        ];
      row "run" "gc"
        [
          ("minor_collections", int gc.Gc.minor_collections);
          ("major_collections", int gc.Gc.major_collections);
          ("heap_words", int gc.Gc.heap_words);
          ("minor_words", Some gc.Gc.minor_words);
          ("major_words", Some gc.Gc.major_words);
        ];
    ]
  in
  let phases = phases_rows ~jobs in
  let rows =
    List.map experiment_row outcomes
    @ phases
    @ List.concat_map (fun o -> o.Shard.out_rows) outcomes
    @ run_rows
  in
  let mode = if !quick then "quick" else "full" in
  Out_channel.with_open_bin "BENCH_PERF.json" (fun oc ->
      output_string oc (Bench_perf.to_string ~mode rows));
  Printf.printf "total %.2fs cpu (%.2fs elapsed at -j %d) over %d experiments; wrote \
                 BENCH_PERF.json\n"
    total_wall elapsed jobs (List.length outcomes)

let usage () =
  Printf.eprintf
    "usage: main.exe [quick] [-v] [-j N] [fig5..fig11 | figs5-8 | table2 | table3 | \
     table4 | ablation | all | perf | bechamel]\n";
  exit 2

let () =
  let jobs = ref 1 in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("quick" | "--quick") :: rest ->
        quick := true;
        parse acc rest
    | ("-v" | "--verbose") :: rest ->
        verbose := true;
        parse acc rest
    | ("-j" | "--jobs") :: n :: rest when Option.is_some (int_of_string_opt n) ->
        jobs := int_of_string n;
        parse acc rest
    | [ ("-j" | "--jobs") ] ->
        Printf.eprintf "-j needs a worker count\n";
        exit 2
    | arg :: rest
      when String.length arg > 2
           && String.equal (String.sub arg 0 2) "-j"
           && Option.is_some (int_of_string_opt (String.sub arg 2 (String.length arg - 2)))
      ->
        jobs := int_of_string (String.sub arg 2 (String.length arg - 2));
        parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let cmds = parse [] (List.tl (Array.to_list Sys.argv)) in
  let jobs = if !jobs <= 0 then Domain_pool.default_jobs () else !jobs in
  (* The main domain gets the same allocation-storm GC relief as the pool's
     workers; tuning affects wall-clock only, never simulated results. *)
  Domain_pool.tune_current_domain ();
  let group = function
    | "figs5-8" -> Some fig_tasks
    | ("fig5" | "fig6" | "fig7" | "fig8" | "table3" | "fig9" | "fig10" | "fig11"
      | "table2" | "table4" | "bigmachine" | "shootout" | "shootout-workloads") as cmd
      ->
        Some (List.filter (fun (n, _) -> String.equal n cmd) all_tasks)
    | "ablation" -> Some ablation_tasks
    | "all" -> Some all_tasks
    | _ -> None
  in
  match cmds with
  | [] -> run_tasks ~jobs all_tasks
  | cmds ->
      List.iter
        (fun cmd ->
          match group cmd with
          | Some tasks -> run_tasks ~jobs tasks
          | None -> (
              match cmd with
              | "bechamel" -> bechamel ()
              | "perf" -> perf ~jobs ()
              | other ->
                  Printf.eprintf "unknown experiment %S\n" other;
                  usage ()))
        cmds
