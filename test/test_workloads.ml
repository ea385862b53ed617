(* Integration tests: every experiment driver runs, is deterministic, and
   shows the paper's qualitative behaviour in miniature. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Small iteration counts: these are correctness/shape tests, not the
   bench harness. *)

let micro ~opts ~placement ~pte_count =
  let cfg = Microbench.default_config ~opts ~placement ~pte_count in
  Microbench.run { cfg with Microbench.iterations = 60; warmup = 10 }

let test_microbench_runs_and_counts () =
  let r = micro ~opts:(Opts.baseline ~safe:true) ~placement:Microbench.Cross_socket ~pte_count:1 in
  check int_t "one shootdown per madvise" 60 r.Microbench.shootdowns;
  check bool_t "nonzero initiator latency" true (r.Microbench.initiator_mean > 0.0);
  check bool_t "nonzero responder interruption" true (r.Microbench.responder_mean > 0.0)

let test_microbench_deterministic () =
  let r1 = micro ~opts:(Opts.baseline ~safe:true) ~placement:Microbench.Same_socket ~pte_count:1 in
  let r2 = micro ~opts:(Opts.baseline ~safe:true) ~placement:Microbench.Same_socket ~pte_count:1 in
  check (Alcotest.float 0.0) "identical means" r1.Microbench.initiator_mean
    r2.Microbench.initiator_mean

let test_microbench_all4_beats_baseline_everywhere () =
  List.iter
    (fun placement ->
      List.iter
        (fun pte_count ->
          List.iter
            (fun safe ->
              let base = micro ~opts:(Opts.baseline ~safe) ~placement ~pte_count in
              let all = micro ~opts:(Opts.all_general ~safe) ~placement ~pte_count in
              check bool_t
                (Printf.sprintf "all4 < baseline (%s, %d pte, safe=%b)"
                   (Microbench.placement_label placement)
                   pte_count safe)
                true
                (all.Microbench.initiator_mean < base.Microbench.initiator_mean))
            [ true; false ])
        [ 1; 10 ])
    Microbench.all_placements

let test_microbench_crosssocket_slower_than_smt () =
  let smt = micro ~opts:(Opts.baseline ~safe:true) ~placement:Microbench.Same_core ~pte_count:1 in
  let far = micro ~opts:(Opts.baseline ~safe:true) ~placement:Microbench.Cross_socket ~pte_count:1 in
  check bool_t "distance costs" true
    (far.Microbench.initiator_mean > smt.Microbench.initiator_mean)

let test_microbench_safe_mode_slower () =
  let safe = micro ~opts:(Opts.baseline ~safe:true) ~placement:Microbench.Same_socket ~pte_count:10 in
  let unsafe = micro ~opts:(Opts.baseline ~safe:false) ~placement:Microbench.Same_socket ~pte_count:10 in
  check bool_t "PTI tax" true
    (safe.Microbench.initiator_mean > unsafe.Microbench.initiator_mean)

let test_cow_bench_runs () =
  let cfg = Cow_bench.default_config ~opts:(Opts.all_general ~safe:true) in
  let cfg = { cfg with Cow_bench.rounds = 3; pages_per_round = 32 } in
  let r = Cow_bench.run cfg in
  check int_t "every write breaks cow once" 96 r.Cow_bench.cow_breaks;
  check int_t "no flushes avoided without the opt" 0 r.Cow_bench.flushes_avoided;
  check bool_t "positive cost" true (r.Cow_bench.write_mean > 0.0)

let test_cow_bench_opt_faster () =
  let run opts =
    let cfg = Cow_bench.default_config ~opts in
    Cow_bench.run { cfg with Cow_bench.rounds = 3; pages_per_round = 32 }
  in
  let base = run (Opts.all_general ~safe:true) in
  let with_cow =
    run
      (Opts.map_paper
         (fun p -> { p with Opts.cow_avoid_flush = true })
         (Opts.all_general ~safe:true))
  in
  check bool_t "cow avoidance reduces write latency" true
    (with_cow.Cow_bench.write_mean < base.Cow_bench.write_mean);
  check int_t "all flushes avoided" 96 with_cow.Cow_bench.flushes_avoided

let sysbench ~opts ~threads =
  let cfg = Sysbench.default_config ~opts ~threads in
  Sysbench.run { cfg with Sysbench.ops_per_thread = 80; file_pages = 256; sync_every = 20 }

let test_sysbench_runs () =
  let r = sysbench ~opts:(Opts.baseline ~safe:true) ~threads:4 in
  check int_t "all ops done" 320 r.Sysbench.ops;
  check bool_t "shootdowns happened" true (r.Sysbench.shootdowns > 0);
  check bool_t "throughput positive" true (r.Sysbench.throughput > 0.0)

let test_sysbench_single_thread_no_shootdowns () =
  let r = sysbench ~opts:(Opts.baseline ~safe:true) ~threads:1 in
  check int_t "no remote CPUs, no shootdowns" 0 r.Sysbench.shootdowns

let test_sysbench_optimized_not_slower () =
  let base = sysbench ~opts:(Opts.baseline ~safe:true) ~threads:6 in
  let opt = sysbench ~opts:(Opts.all ~safe:true) ~threads:6 in
  check bool_t
    (Printf.sprintf "optimized (%.3f) >= baseline (%.3f) throughput"
       opt.Sysbench.throughput base.Sysbench.throughput)
    true
    (opt.Sysbench.throughput >= base.Sysbench.throughput)

let test_sysbench_batching_defers () =
  let opts = Opts.all ~safe:true in
  let r = sysbench ~opts ~threads:4 in
  check bool_t "batched deferrals happened" true (r.Sysbench.batched_deferrals > 0)

let test_sysbench_node_cpus () =
  let topo = Topology.paper_machine in
  check (Alcotest.list int_t) "first four on socket 0" [ 0; 1; 2; 3 ]
    (Sysbench.node_cpus topo 4);
  let sixteen = Sysbench.node_cpus topo 16 in
  check int_t "16 cpus" 16 (List.length sixteen);
  List.iter
    (fun cpu -> check int_t "all on socket 0" 0 (Topology.socket_of topo cpu))
    sixteen;
  Alcotest.check_raises "29 exceeds node"
    (Invalid_argument "Sysbench: 29 threads exceed the 28 CPUs of one node") (fun () ->
      ignore (Sysbench.node_cpus topo 29))

let apache ~opts ~cores =
  let cfg = Apache.default_config ~opts ~cores in
  Apache.run { cfg with Apache.requests = 120 }

let test_apache_runs () =
  let r = apache ~opts:(Opts.baseline ~safe:true) ~cores:4 in
  check int_t "requests served" 120 r.Apache.requests_done;
  check bool_t "munmaps shoot down" true (r.Apache.shootdowns > 0)

let test_apache_optimized_not_slower () =
  let base = apache ~opts:(Opts.baseline ~safe:true) ~cores:6 in
  let opt = apache ~opts:(Opts.all ~safe:true) ~cores:6 in
  check bool_t "optimized >= baseline" true
    (opt.Apache.throughput >= base.Apache.throughput)

let test_apache_single_core_no_shootdowns () =
  let r = apache ~opts:(Opts.baseline ~safe:true) ~cores:1 in
  check int_t "solo core" 0 r.Apache.shootdowns

(* IPI conservation: Apache, Sysbench and Bigmachine fail a run whose IPIs
   sent differ from the IRQs handled or that ends with an IRQ pending
   ([Kernel.check_run]). Small configs under every backend, each of
   which must have sent IPIs for the check to mean anything. *)
let test_ipi_conservation_all_backends () =
  List.iter
    (fun (label, opts) ->
      let a = apache ~opts ~cores:4 in
      check bool_t (label ^ ": apache shot down") true (a.Apache.shootdowns > 0);
      let s =
        Sysbench.run
          {
            (Sysbench.default_config ~opts ~threads:4) with
            Sysbench.ops_per_thread = 40;
            file_pages = 128;
          }
      in
      check bool_t (label ^ ": sysbench shot down") true (s.Sysbench.shootdowns > 0);
      let b =
        Bigmachine.run
          (Bigmachine.quick_shape (Bigmachine.default_config ~opts ~n_cpus:56))
      in
      check bool_t (label ^ ": bigmachine sent IPIs") true (b.Bigmachine.ipis > 0))
    (Shootout.workload_backends ())

(* The conservation check itself: an IPI left pending on a CPU that never
   unmasks, and an IRQ handled that no IPI sent (what a dispatch path that
   runs an IRQ twice would produce). *)
let test_ipi_invariants_catch_imbalance () =
  let failures m =
    let l = ref [] in
    Machine.ipi_invariants m (fun s -> l := s :: !l);
    List.rev !l
  in
  let irq = Helpers.irq 1 ignore in
  let m = Machine.create ~opts:(Opts.all ~safe:true) () in
  Process.spawn m.Machine.engine ~name:"sender" (fun () ->
      Cpu.quiesce_and_mask (Machine.cpu m 1);
      ignore (Helpers.send_ipi m.Machine.apic ~from:0 ~targets:[ 1; 2 ] irq));
  Machine.run m;
  check
    Alcotest.(list string)
    "a dropped IPI"
    [ "2 IPI(s) sent but 1 handled at quiescence"; "cpu1: 1 IRQ(s) pending at quiescence" ]
    (failures m);
  let m = Machine.create ~opts:(Opts.all ~safe:true) () in
  Process.spawn m.Machine.engine ~name:"poster" (fun () -> Cpu.post_irq (Machine.cpu m 3) irq);
  Machine.run m;
  Alcotest.check_raises "an IRQ handled twice fails the run"
    (Failure "Demo: 0 IPI(s) sent but 1 handled at quiescence") (fun () ->
      Kernel.check_run m ~who:"Demo")

(* Arena conservation: once the engine has drained, every event row is
   back on the arena's free list. A row held past the drain, here one
   scheduled after the run and never run, must fail the run; running it
   returns the row and the check passes again. *)
let test_engine_arena_conservation () =
  let failures m =
    let l = ref [] in
    Kernel.check_quiescent m (fun s -> l := s :: !l);
    List.rev !l
  in
  let m = Machine.create ~opts:(Opts.all ~safe:true) () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      Syscall.munmap m ~cpu:0 ~addr ~pages:2);
  Kernel.run m;
  check Alcotest.(list string) "drained run" [] (failures m);
  let e = m.Machine.engine in
  let tag = Engine.register_handler e (fun _ _ -> ()) in
  Engine.schedule_tag e ~delay:5 ~tag ~a:0 ~b:0;
  check
    Alcotest.(list string)
    "a held row"
    [ "engine arena: 1 event row(s) not back on the free list" ]
    (failures m);
  Alcotest.check_raises "fails the run"
    (Failure "Demo: engine arena: 1 event row(s) not back on the free list") (fun () ->
      Kernel.check_run m ~who:"Demo");
  Kernel.run m;
  check Alcotest.(list string) "row returned" [] (failures m)

(* Quiescence: a run must not end inside an IRQ drain. A handler whose
   step never ends keeps its drain running: here one that asks for 1000
   more cycles at every boundary, on an engine with an event every 100
   cycles (so no boundary takes the fast path), in a run stopped at a
   fixed time. It
   leaves a drain behind detached on an idle CPU, and in a process at its
   own service point. Nor may a run end with protocol
   state left over: an open checker window, a deferred user flush, a
   queued call, an inflight-flush flag or a batched shootdown.
   [Kernel.check_run] must report each, and a checker violation with its
   first recorded instance. *)
let test_dispatch_quiescence () =
  let stuck = { Cpu.vector = 1; maskable = true; step = (fun _ _ -> 1000) } in
  let stop m =
    let e = m.Machine.engine in
    let tag = ref (-1) in
    tag :=
      Engine.register_handler e (fun _ _ ->
          Engine.schedule_tag e ~delay:100 ~tag:!tag ~a:0 ~b:0);
    Engine.schedule_tag e ~delay:100 ~tag:!tag ~a:0 ~b:0;
    Engine.run_until e ~time:50_000
  in
  let m = Machine.create ~opts:(Opts.all ~safe:true) () in
  Process.spawn m.Machine.engine ~name:"poster" (fun () ->
      Cpu.post_irq (Machine.cpu m 3) stuck);
  stop m;
  Alcotest.check_raises "a detached drain left running"
    (Failure "Demo: cpu3: IRQ drain still running at quiescence") (fun () ->
      Kernel.check_run m ~who:"Demo");
  let m = Machine.create ~opts:(Opts.all ~safe:true) () in
  let cpu = Machine.cpu m 2 in
  Process.spawn m.Machine.engine ~name:"user" (fun () ->
      (* An occupant in user mode: the IRQ waits for its service point. *)
      Cpu.occupy cpu;
      Cpu.post_irq cpu stuck;
      Cpu.service_pending cpu);
  stop m;
  Alcotest.check_raises "a drain left running"
    (Failure "Demo: cpu2: IRQ drain still running at quiescence") (fun () ->
      Kernel.check_run m ~who:"Demo");
  let info = Flush_info.full ~mm_id:0 ~new_tlb_gen:1 () in
  List.iter
    (fun (what, leave) ->
      let m = Machine.create ~opts:(Opts.all ~safe:true) () in
      leave m (Machine.percpu m 1);
      Alcotest.check_raises what (Failure ("Demo: " ^ what)) (fun () ->
          Kernel.check_run m ~who:"Demo"))
    [
      ( "TLB coherence violation: t=5 cpu1 mm1 vpn=10: translation removed from page table",
        fun m _ ->
          let entry =
            {
              Tlb.vpn = 10;
              pfn = 5;
              pcid = 1;
              size = Tlb.Four_k;
              global = false;
              writable = false;
              fractured = false;
              ck_ver = -1;
            }
          in
          ignore
            (Checker.check_hit m.Machine.checker ~now:5 ~cpu:1 ~mm_id:1 ~vpn:10 ~write:false
               ~entry ~pt:(Page_table.create ())
              : Checker.result) );
      ( "1 invalidation window(s) open at quiescence",
        fun m _ -> ignore (Checker.begin_invalidation m.Machine.checker info) );
      ( "cpu1: deferred user flush survives quiescence",
        fun _ p -> p.Percpu.pending_user <- Percpu.Full_flush );
      ( "cpu1: undrained call queue at quiescence",
        fun _ p ->
          Queue.push
            {
              Percpu.cfd_seq = 0;
              cfd_initiator = 0;
              cfd_target = 1;
              cfd_info = info;
              cfd_early_ack = false;
              cfd_acked = false;
              cfd_executed = false;
              cfd_line = Cache.create_line p.Percpu.registry;
              cfd_info_line = None;
            }
            p.Percpu.csq );
      ( "cpu1: inflight-flush flag stuck at quiescence",
        fun _ p -> p.Percpu.inflight_flush <- true );
      ( "cpu1: unflushed batched shootdowns at quiescence",
        fun m p ->
          let token = Checker.begin_invalidation m.Machine.checker info in
          Checker.end_invalidation m.Machine.checker token;
          p.Percpu.batch <- [ (info, token) ] );
    ]

(* Sync-broadcast conservation: every responder whose done bit the
   initiator cleared sets it again and decrements [sync_outstanding], so
   the count is 0 at the end of every run. [Kernel.check_run], which
   ends each workload run, fails the run otherwise; these runs must both
   broadcast and pass. A count set wrong by hand must be reported by the
   backend's quiescence check and fail [Kernel.check_run]. *)
let test_sync_outstanding_conserved () =
  let opts = Opts.with_protocol Opts.Sync_broadcast ~safe:true in
  let s =
    Sysbench.run
      {
        (Sysbench.default_config ~opts ~threads:4) with
        Sysbench.ops_per_thread = 40;
        file_pages = 128;
      }
  in
  check bool_t "sysbench shot down" true (s.Sysbench.shootdowns > 0);
  let b =
    Bigmachine.run (Bigmachine.quick_shape (Bigmachine.default_config ~opts ~n_cpus:56))
  in
  check bool_t "bigmachine sent IPIs" true (b.Bigmachine.ipis > 0);
  let m = Machine.create ~opts () in
  check int_t "fresh machine" 0 m.Machine.sync_outstanding;
  m.Machine.sync_outstanding <- 2;
  let failures = ref [] in
  Shootdown.protocol_quiescent m ~cpu:0 (fun f -> failures := f :: !failures);
  check
    Alcotest.(list string)
    "wrong count reported"
    [ "sync-broadcast outstanding count 2 at quiescence" ]
    !failures;
  Alcotest.check_raises "a wrong count fails the run"
    (Failure "Demo: sync-broadcast outstanding count 2 at quiescence") (fun () ->
      Kernel.check_run m ~who:"Demo")

let test_fracture_table_shape () =
  let cfg = { Fracture.working_set_pages = 256; rounds = 20; tlb_capacity = 1536 } in
  let results = Fracture.run_all cfg in
  check int_t "six rows" 6 (List.length results);
  List.iter
    (fun (r : Fracture.result) ->
      let fractured =
        r.Fracture.shape.Fracture.host = Some Tlb.Four_k
        && r.Fracture.shape.Fracture.guest = Tlb.Two_m
      in
      if fractured then begin
        (* The paper's anomaly: selective ~= full. *)
        check bool_t "selective as bad as full" true
          (float_of_int r.Fracture.selective_misses
          >= 0.9 *. float_of_int r.Fracture.full_misses);
        check bool_t "promotions happened" true (r.Fracture.fracture_promotions > 0)
      end
      else begin
        (* Selective flushes preserve the working set. *)
        check bool_t
          (Printf.sprintf "%s: selective << full" r.Fracture.shape.Fracture.label)
          true
          (float_of_int r.Fracture.selective_misses
          < 0.1 *. float_of_int r.Fracture.full_misses);
        check int_t "no promotions" 0 r.Fracture.fracture_promotions
      end)
    results

let test_fracture_2m_on_2m_fewer_misses () =
  let cfg = { Fracture.working_set_pages = 1024; rounds = 20; tlb_capacity = 1536 } in
  let find label = List.find (fun r -> r.Fracture.shape.Fracture.label = label) in
  let results = Fracture.run_all cfg in
  let small = find "VM   host=4K guest=4K" results in
  let big = find "VM   host=2M guest=2M" results in
  (* 2 MiB effective entries: ~512x fewer full-flush misses (Table 4's
     103M vs 4M contrast in our scale). *)
  check bool_t "hugepages cut full-flush misses" true
    (big.Fracture.full_misses * 20 < small.Fracture.full_misses)

let test_report_formatting () =
  check Alcotest.string "cycles small" "950" (Report.cycles 950.0);
  check Alcotest.string "cycles k" "15.2k" (Report.cycles 15_200.0);
  check Alcotest.string "cycles M" "2.50M" (Report.cycles 2_500_000.0);
  check Alcotest.string "speedup" "1.180x" (Report.speedup 1.18);
  check Alcotest.string "reduction" "58%" (Report.reduction ~baseline:100.0 42.0);
  check Alcotest.string "count" "102,400" (Report.count 102400);
  check Alcotest.string "count small" "37" (Report.count 37)

let test_report_bars () =
  (* Bar widths in block glyphs (3 bytes of UTF-8 each), one per row, from
     what [bars] prints after each row's '|'. *)
  let widths rows =
    let text, () = Report.capture (fun () -> Report.bars ~title:"t" rows) in
    List.filter_map
      (fun line ->
        Option.map
          (fun i -> (String.length line - i - 1) / 3)
          (String.index_opt line '|'))
      (String.split_on_char '\n' text)
  in
  check (Alcotest.list int_t) "full, half and zero bars, scaled to the largest"
    [ 40; 20; 0 ]
    (widths [ ("a", 100.0); ("b", 50.0); ("c", 0.0) ]);
  (* 62.4 of 100 is 24.96 cells: rounded, not truncated. *)
  check (Alcotest.list int_t) "rounds" [ 40; 25 ] (widths [ ("a", 100.0); ("b", 62.4) ]);
  check (Alcotest.list int_t) "degenerate max" [ 0; 0 ]
    (widths [ ("a", 0.0); ("b", 0.0) ])

let suite =
  [
    Alcotest.test_case "microbench: runs and counts" `Quick test_microbench_runs_and_counts;
    Alcotest.test_case "microbench: deterministic" `Quick test_microbench_deterministic;
    Alcotest.test_case "microbench: all4 beats baseline everywhere" `Slow
      test_microbench_all4_beats_baseline_everywhere;
    Alcotest.test_case "microbench: distance hurts" `Quick test_microbench_crosssocket_slower_than_smt;
    Alcotest.test_case "microbench: PTI tax" `Quick test_microbench_safe_mode_slower;
    Alcotest.test_case "cow bench: runs" `Quick test_cow_bench_runs;
    Alcotest.test_case "cow bench: optimization wins" `Quick test_cow_bench_opt_faster;
    Alcotest.test_case "sysbench: runs" `Quick test_sysbench_runs;
    Alcotest.test_case "sysbench: 1 thread, no shootdowns" `Quick test_sysbench_single_thread_no_shootdowns;
    Alcotest.test_case "sysbench: optimized not slower" `Quick test_sysbench_optimized_not_slower;
    Alcotest.test_case "sysbench: batching defers" `Quick test_sysbench_batching_defers;
    Alcotest.test_case "sysbench: node pinning" `Quick test_sysbench_node_cpus;
    Alcotest.test_case "apache: runs" `Quick test_apache_runs;
    Alcotest.test_case "apache: optimized not slower" `Quick test_apache_optimized_not_slower;
    Alcotest.test_case "apache: solo core quiet" `Quick test_apache_single_core_no_shootdowns;
    Alcotest.test_case "workloads: IPI conservation, every backend" `Quick
      test_ipi_conservation_all_backends;
    Alcotest.test_case "machine: IPI conservation check" `Quick
      test_ipi_invariants_catch_imbalance;
    Alcotest.test_case "kernel: engine arena conservation check" `Quick
      test_engine_arena_conservation;
    Alcotest.test_case "sync-broadcast: outstanding count conserved" `Quick
      test_sync_outstanding_conserved;
    Alcotest.test_case "fracture: table shape" `Quick test_fracture_table_shape;
    Alcotest.test_case "fracture: hugepages cut misses" `Quick test_fracture_2m_on_2m_fewer_misses;
    Alcotest.test_case "report: formatting" `Quick test_report_formatting;
    Alcotest.test_case "report: bars" `Quick test_report_bars;
    Alcotest.test_case "quiescence: no dispatcher or drain left running" `Quick
      test_dispatch_quiescence;
  ]
