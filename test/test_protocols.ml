(* Tests for the protocol-backend interface (DESIGN.md §13): config-key
   and memo-cell separation between backends, backend-observable flush
   semantics (sync-broadcast full flushes, queue-spin ring overflow), the
   options each backend takes, differential equivalence of
   every backend against the oracle over a fuzz corpus, and shootout
   report determinism across -j. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let paper = Opts.Paper Opts.paper_baseline

(* ---------- key / memo separation ---------- *)

let test_opts_key_distinct_per_protocol () =
  let keys =
    List.map (fun p -> Opts.key (Opts.with_protocol p ~safe:true)) Opts.all_protocols
  in
  check int_t "every protocol keys differently"
    (List.length Opts.all_protocols)
    (List.length (List.sort_uniq compare keys))

let micro_config protocol =
  let opts = Opts.with_protocol protocol ~safe:true in
  Microbench.default_config ~opts ~placement:Microbench.Cross_socket ~pte_count:10

let test_memo_cells_not_shared_across_protocols () =
  (* Two configs differing only in protocol must own separate cells; the
     same config registered twice must share one. *)
  let memo = Shard.create_memo () in
  let register protocol =
    let config = micro_config protocol in
    let jobs, _get, owned =
      Shard.memo_cell memo ~key:(Microbench.config_key config) ~weight:1.0 (fun () ->
          Microbench.run config)
    in
    (List.length jobs, owned)
  in
  check (Alcotest.pair int_t bool_t) "paper owns its cell" (1, true)
    (register paper);
  check (Alcotest.pair int_t bool_t) "queue-spin owns a distinct cell" (1, true)
    (register Opts.Queue_spin);
  check (Alcotest.pair int_t bool_t) "re-registering paper reuses it" (0, false)
    (register paper)

(* ---------- backend-observable flush semantics ---------- *)

let tlb_of m cpu = Cpu.tlb (Machine.cpu m cpu)

let map_pages m mm ~pages =
  let start_vpn = Mm_struct.alloc_va_range mm ~pages () in
  Mm_struct.add_vma mm (Vma.make ~start_vpn ~pages ());
  let pt = Mm_struct.page_table mm in
  for i = 0 to pages - 1 do
    Page_table.map pt ~vpn:(start_vpn + i) ~size:Tlb.Four_k
      (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames))
  done;
  start_vpn

let warm m ~cpu ~start_vpn ~pages =
  Access.touch_range m ~cpu ~addr:(Addr.addr_of_vpn start_vpn) ~pages ~write:false

(* Run [body] as a user thread on cpu 0 with a busy responder on cpu 14
   (cross-socket), as in the shootdown tests. *)
let with_pair ~opts body =
  let m = Machine.create ~opts ~seed:3L () in
  let mm = Machine.new_mm m in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"responder" (fun () ->
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 2_000;
      body m mm;
      Machine.delay m 10_000;
      stop := true);
  Kernel.run m;
  m

(* Plant a translation in the responder's TLB at [vpn], kernel PCID of its
   current ASID slot, so ranged-vs-full responder behavior is observable. *)
let plant m ~cpu ~vpn =
  Tlb.insert (tlb_of m cpu)
    {
      Tlb.vpn;
      pfn = 0;
      pcid = Percpu.kernel_pcid (Machine.percpu m cpu).Percpu.curr_asid;
      size = Tlb.Four_k;
      global = false;
      writable = true;
      fractured = false;
      ck_ver = -1;
    }

let planted_present m ~cpu ~vpn =
  Tlb.mem (tlb_of m cpu)
    ~pcid:(Percpu.kernel_pcid (Machine.percpu m cpu).Percpu.curr_asid)
    ~vpn

let test_sync_broadcast_ipis_every_cpu () =
  (* The cronus-style backend broadcasts unfiltered: one 1-page flush IPIs
     every other CPU on the machine (the paper protocol would send exactly
     one, to the only other CPU in the mm's cpumask), and the responder
     applies the posted descriptor through the shared ranged flush. *)
  let ipis = ref 0 and n = ref 0 and gone = ref false in
  let _m =
    with_pair ~opts:(Opts.with_protocol Opts.Sync_broadcast ~safe:true) (fun m mm ->
        let vpn = map_pages m mm ~pages:1 in
        warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
        plant m ~cpu:14 ~vpn;
        n := Topology.n_cpus m.Machine.topo;
        Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
        Machine.delay m 10_000;
        ipis := Apic.ipis_sent m.Machine.apic;
        gone := not (planted_present m ~cpu:14 ~vpn))
  in
  check int_t "every other CPU IPI'd" (!n - 1) !ipis;
  check bool_t "flushed on the responder" true !gone

let test_queue_ring_overflow_collapses_to_flush_all () =
  (* Under-capacity ranged flushes post per-page ring entries: only the
     posted vpns are invalidated. Overflowing Percpu.queue_slots collapses
     the post to a whole-TLB flush-all on the responder. *)
  let small_survives = ref false and overflow_gone = ref false in
  let _m =
    with_pair ~opts:(Opts.with_protocol Opts.Queue_spin ~safe:true) (fun m mm ->
        let pages = Percpu.queue_slots + 1 in
        let vpn = map_pages m mm ~pages in
        let other = map_pages m mm ~pages:1 in
        warm m ~cpu:0 ~start_vpn:vpn ~pages;
        plant m ~cpu:14 ~vpn:other;
        (* 2 entries fit in the ring: [other] must survive the drain. *)
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:2 ();
        Machine.delay m 10_000;
        small_survives := planted_present m ~cpu:14 ~vpn:other;
        (* queue_slots+1 entries overflow: the responder flushes all. *)
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages ();
        Machine.delay m 10_000;
        overflow_gone := not (planted_present m ~cpu:14 ~vpn:other))
  in
  check bool_t "unposted entry survives an in-capacity drain" true !small_survives;
  check bool_t "overflow collapses to flush-all" true !overflow_gone

(* ---------- the options each backend takes ---------- *)

(* Paper knobs cannot be given to the oracle at all; what it can be given
   — the shared in-context policy, the full-flush threshold and a fault —
   it must ignore, being the reference. *)
let test_oracle_ignores_combo_flags () =
  let program = Fuzz.gen_program 11 in
  let oracle = Opts.oracle ~safe:true in
  let reference = Fuzz.execute ~opts:oracle program in
  List.iter
    (fun (label, opts, program) ->
      let r = Fuzz.execute ~opts program in
      check bool_t
        (Printf.sprintf "%s: same observations as the plain oracle" label)
        true
        (r.Fuzz.xr_obs = reference.Fuzz.xr_obs);
      check bool_t
        (Printf.sprintf "%s: same final state" label)
        true
        (r.Fuzz.xr_final = reference.Fuzz.xr_final))
    [
      ("in-context", { oracle with Opts.in_context_flush = true }, program);
      ("threshold 1", oracle, { program with Fuzz.p_flush_threshold = 1 });
      ("threshold 4096", oracle, { program with Fuzz.p_flush_threshold = 4096 });
      ( "skip-deferred-flush",
        { oracle with Opts.fault = Some Opts.Skip_deferred_flush },
        program );
      ("lazy strawman", { oracle with Opts.fault = Some Opts.Lazy_strawman }, program);
    ]

(* In-context flushing is the one shared knob sync-broadcast and
   queue-spin honour: it decides whether their responder and initiator
   flushes INVPCID the user PCID now or defer it to kernel exit. *)
let test_in_context_changes_cycles () =
  let cycles protocol ~in_context =
    let opts =
      { (Opts.with_protocol protocol ~safe:true) with Opts.in_context_flush = in_context }
    in
    let dt = ref 0 in
    let _m =
      with_pair ~opts (fun m mm ->
          let vpn = map_pages m mm ~pages:8 in
          warm m ~cpu:0 ~start_vpn:vpn ~pages:8;
          let t0 = Machine.now m in
          Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:8 ();
          dt := Machine.now m - t0)
    in
    !dt
  in
  List.iter
    (fun protocol ->
      let off = cycles protocol ~in_context:false
      and on = cycles protocol ~in_context:true in
      check bool_t
        (Printf.sprintf "%s: %d cycles without, %d with"
           (Opts.protocol_label protocol) off on)
        true (off <> on))
    [ Opts.Sync_broadcast; Opts.Queue_spin ]

(* ---------- differential equivalence over a fuzz corpus ---------- *)

(* Every backend must be indistinguishable from the conservative oracle on
   a fixed corpus: identical observations and final state, no checker
   violation, no quiescence-invariant failure (run_program checks all of
   these). The corpus seeds span optimization combos and topologies. *)
let test_backends_match_oracle_on_corpus () =
  let seeds = [ 0; 3; 7; 17; 42; 56 ] in
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let program =
            { (Fuzz.gen_program seed) with Fuzz.p_protocol = protocol }
          in
          match Fuzz.run_program program with
          | [] -> ()
          | reasons ->
              Alcotest.failf "%s diverged on seed %d: %s"
                (Opts.protocol_label protocol)
                seed
                (String.concat "; " reasons))
        seeds)
    [ paper; Opts.Sync_broadcast; Opts.Queue_spin ]

(* ---------- queue-spin resend ladder ---------- *)

(* The retry ladder must re-IPI only the still-pending subset: cpu 1 acks
   within the initial spin, cpu 14 sits in one uninterruptible compute
   stretch that outlasts it, so every resend must go to cpu 14 alone. The
   per-rank delivery meter separates the two (cpu 1 shares the
   initiator's socket, cpu 14 is cross-socket); before the subset fix
   each resend re-billed the already-acked cpu 1 too. *)
let test_queue_resend_only_unacked () =
  let opts = Opts.with_protocol Opts.Queue_spin ~safe:true in
  let m = Machine.create ~opts ~seed:3L () in
  let near_rank = Machine.distance_rank m 0 1
  and far_rank = Machine.distance_rank m 0 14 in
  check bool_t "ranks distinguish near from far" true (near_rank <> far_rank);
  let near = ref 0 and far = ref 0 in
  Apic.set_delivery_meter m.Machine.apic (fun rank _cycles ->
      if rank = near_rank then incr near
      else if rank = far_rank then incr far);
  let mm = Machine.new_mm m in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:1 ~mm ~name:"fast" (fun () ->
      let cpu_t = Machine.cpu m 1 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"slow" (fun () ->
      let cpu_t = Machine.cpu m 14 in
      (* One uninterruptible stretch: the IPI pends past the initial
         2000-cycle spin, forcing at least one resend. *)
      Cpu.compute cpu_t 9_000;
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 2_000;
      let vpn = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check int_t "near responder IPI'd exactly once" 1 !near;
  check bool_t "far responder resent at least once" true (!far >= 2)

(* ---------- cross-backend workload cells ---------- *)

(* Planned after fig10_plan/fig11_plan and the bench's 56-CPU cell on the
   same memos, the paper backend's workload cells must all be reused —
   [Opts.all ~safe:true] is value-identical to the figures' final
   "+batching" stack and to the bench bigmachine config — while the other
   three backends own every one of theirs. *)
let test_paper_workload_cells_reused () =
  let sysbench_memo = Shard.create_memo () in
  let apache_memo = Shard.create_memo () in
  let bigmachine_memo = Shard.create_memo () in
  let fig10 = Figures.fig10_scale ~quick:true in
  let fig11 = Figures.fig11_scale ~quick:true in
  let (_ : Shard.plan) = Figures.fig10_plan ~memo:sysbench_memo fig10 in
  let (_ : Shard.plan) = Figures.fig11_plan ~memo:apache_memo fig11 in
  let cfg =
    Bigmachine.quick_shape
      (Bigmachine.default_config ~opts:(Opts.all ~safe:true) ~n_cpus:56)
  in
  let _js, _get, owned =
    Shard.memo_cell bigmachine_memo ~key:(Bigmachine.config_key cfg) ~weight:1.0
      (fun () -> Bigmachine.run cfg)
  in
  check bool_t "the bench registration owns the 56-CPU cell" true owned;
  let f10 =
    List.length fig10.Figures.sys_threads * List.length fig10.Figures.sys_seeds
  in
  let f11 =
    List.length fig11.Figures.ap_cores * List.length fig11.Figures.ap_seeds
  in
  let jobs, _get, reused =
    Shootout.workload_cells ~sysbench_memo ~apache_memo ~bigmachine_memo ~fig10
      ~fig11 ~quick:true ()
  in
  check int_t "every paper cell reused from the earlier plans" (f10 + f11 + 1) reused;
  check int_t "the other three backends own all their cells"
    (3 * (f10 + f11 + 1))
    (List.length jobs)

let test_workloads_identical_at_any_j () =
  let run jobs = Shootout.run_workloads ~quick:true ~jobs Shootout.Table in
  let j1 = run 1 in
  check bool_t "-j2 byte-identical to -j1" true (String.equal j1 (run 2));
  check bool_t "-j4 byte-identical to -j1" true (String.equal j1 (run 4))

(* ---------- shootout determinism ---------- *)

let test_shootout_identical_at_any_j () =
  let run jobs = Shootout.run ~iterations:30 ~jobs Shootout.Table in
  let j1 = run 1 in
  check bool_t "report lists every backend" true
    (List.for_all
       (fun label ->
         let n = String.length label in
         let rec go i =
           i + n <= String.length j1 && (String.sub j1 i n = label || go (i + 1))
         in
         go 0)
       [ "paper"; "paper-baseline"; "oracle"; "sync-broadcast"; "queue-spin" ]);
  check bool_t "-j2 byte-identical to -j1" true (String.equal j1 (run 2));
  check bool_t "-j4 byte-identical to -j1" true (String.equal j1 (run 4))

(* ---------- suspensions per charge run ---------- *)

(* An engine event every cycle for [cycles] cycles: no delay, tick or
   chain boundary inside them can take the [try_advance] fast path, so
   every charge outside a charge run suspends its process. *)
let keep_busy m cycles =
  let e = m.Machine.engine in
  let tag = ref (-1) in
  tag :=
    Engine.register_handler e (fun left _ ->
        if left > 0 then Engine.schedule_tag e ~delay:1 ~tag:!tag ~a:(left - 1) ~b:0);
  Engine.schedule_tag e ~delay:0 ~tag:!tag ~a:cycles ~b:0

(* Engine suspensions and engine ops of one single-page shootdown from
   cpu 0 of an [n]-CPU machine under [protocol], on a busy engine, every
   other CPU idle (no occupant, the mm not loaded). *)
let broadcast_counts protocol n =
  let m =
    Machine.create ~topo:(Topology.flat n)
      ~opts:(Opts.with_protocol protocol ~safe:true)
      ~seed:3L ()
  in
  let mm = Machine.new_mm m in
  let busy = 100_000 and done_at = ref max_int in
  keep_busy m busy;
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      let vpn = map_pages m mm ~pages:1 in
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      done_at := Machine.now m);
  let s0 = Engine.suspensions () in
  Kernel.run m;
  let s = Engine.suspensions () - s0 in
  Kernel.check_run m ~who:"broadcast";
  check bool_t "the shootdown ran on a busy engine" true (!done_at < busy);
  check int_t "every responder IPI'd" (n - 1) (Apic.ipis_sent m.Machine.apic);
  (s, Machine.engine_ops m)

let broadcast_suspensions protocol n = fst (broadcast_counts protocol n)

(* One more idle responder costs the initiator no suspension, and the
   responder none at all: these initiators pay no per-target charge
   outside a charge run, and a responder's whole handler is one charge run
   driven by its CPU's dispatch events, with no process. An idle
   sync-broadcast responder's run is its status-line read and done-bit
   atomic; an oracle responder's is its queue, CSD and info reads, page
   walk, CR3 write and ack write. *)
let test_responder_suspensions () =
  let per_responder protocol =
    broadcast_suspensions protocol 4 - broadcast_suspensions protocol 3
  in
  check int_t "idle sync-broadcast responder" 0 (per_responder Opts.Sync_broadcast);
  check int_t "oracle responder" 0 (per_responder Opts.Oracle)

(* A sync-broadcast responder whose flush is skipped (the mm is not loaded
   there) suspends at most once per IPI, at any responder count, and the
   run keeps every boundary its own engine event: the engine ops (the busy
   engine's 100,001 events included) are those the same broadcast took
   when each status-line access was its own suspending charge. *)
let test_sync_skipped_responder_one_run () =
  let s2, _ = broadcast_counts Opts.Sync_broadcast 2 in
  List.iter
    (fun (n, ops) ->
      let s, o = broadcast_counts Opts.Sync_broadcast n in
      if s - s2 > n - 2 then
        Alcotest.failf "%d responders suspended %d times past the first's" (n - 1)
          (s - s2);
      check int_t (Printf.sprintf "engine ops, %d CPUs" n) ops o)
    [ (3, 100_060); (5, 100_072); (8, 100_090); (16, 100_138) ]

(* The same shootdown with the mm loaded on every responder, so each
   responder's flush is due: suspensions from the shootdown on, engine
   ops, and the flushes skipped. *)
let due_counts protocol n =
  let m =
    Machine.create ~topo:(Topology.flat n)
      ~opts:(Opts.with_protocol protocol ~safe:true)
      ~seed:3L ()
  in
  let mm = Machine.new_mm m in
  let s0 = ref 0 in
  keep_busy m 100_000;
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      let vpn = map_pages m mm ~pages:1 in
      for c = 1 to n - 1 do
        Sched.switch_mm m ~cpu:c mm
      done;
      s0 := Engine.suspensions ();
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn);
  Kernel.run m;
  Kernel.check_run m ~who:"due flush";
  check int_t "no responder skipped its flush" 0
    m.Machine.stats.Machine.flush_requests_skipped;
  (Engine.suspensions () - !s0, Machine.engine_ops m)

(* A responder whose flush is due runs it inside its one charge run: the
   paper responder's CSD read, generation read, INVLPG, INVPCID and ack
   write; the sync-broadcast responder's status read, the same flush and
   its done-bit atomic; the oracle's CR3 write. One more responder costs
   no suspension, and the engine ops are those each charge took when it
   suspended on its own. *)
let test_due_responder_one_run () =
  List.iter
    (fun (name, protocol, ops) ->
      let s3, _ = due_counts protocol 3 in
      let s4, _ = due_counts protocol 4 in
      check int_t (name ^ " responder") 0 (s4 - s3);
      List.iter
        (fun (n, ops) ->
          check int_t
            (Printf.sprintf "%s engine ops, %d CPUs" name n)
            ops
            (snd (due_counts protocol n)))
        ops)
    [
      ("paper", paper, [ (3, 100_110); (5, 100_150); (8, 100_210); (16, 100_370) ]);
      ( "sync-broadcast",
        Opts.Sync_broadcast,
        [ (3, 100_092); (5, 100_118); (8, 100_157); (16, 100_261) ] );
      ("oracle", Opts.Oracle, [ (3, 100_090); (5, 100_124); (8, 100_175); (16, 100_311) ]);
    ]

(* [k] requests queued on one responder before its IPI lands, drained by
   a handler whose step is [Smp.drain_queue]'s run: the queue read, and per
   request the CSD read, the baseline layout's info read and page walk,
   and the work's three phases. The whole drain is one run that suspends
   nothing, and every CFD counts as released. *)
let test_drain_k_requests_one_run () =
  List.iter
    (fun k ->
      let m =
        Machine.create ~topo:(Topology.flat 4)
          ~opts:(Opts.with_protocol paper ~safe:true)
          ~seed:3L ()
      in
      let e = m.Machine.engine in
      keep_busy m 100_000;
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
      let during = ref (-1) and drained_at = ref 0 and s0 = ref 0 in
      let step _ k =
        if k = 0 then s0 := Engine.suspensions ();
        let d = if k = 0 then lead 1 else visit 1 (k - 1) in
        if d < 0 then begin
          during := Engine.suspensions () - !s0;
          drained_at := Engine.now e
        end;
        d
      in
      let irq = { Cpu.vector = Smp.tlb_shootdown_vector; maskable = true; step } in
      Process.spawn e ~name:"initiator" (fun () ->
          let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 () in
          let targets = Cpuset.create ~bits:4 in
          Cpuset.set targets 1;
          for _ = 1 to k do
            ignore (Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false)
          done;
          Machine.delay m
            (Apic.send_ipi_id m.Machine.apic ~from:0 ~targets
               ~irq_id:(Apic.register_irq m.Machine.apic irq)));
      Machine.run m;
      Kernel.check_run m ~who:"k requests";
      check bool_t "drained on a busy engine" true (!drained_at < 100_000);
      check int_t (Printf.sprintf "%d requests, no suspension" k) 0 !during;
      check int_t "every CFD released" k (Machine.percpu m 1).Percpu.csd_released)
    [ 1; 4; 7 ]

(* CSD conservation: a CFD the drain fetched but never executed or acked
   is reported at quiescence, under both call-queue backends. *)
let test_unexecuted_cfd_reported () =
  List.iter
    (fun protocol ->
      let m =
        Machine.create ~topo:(Topology.flat 2)
          ~opts:(Opts.with_protocol protocol ~safe:true)
          ~seed:3L ()
      in
      Process.spawn m.Machine.engine ~name:"t" (fun () ->
          let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 () in
          let targets = Cpuset.create ~bits:2 in
          Cpuset.set targets 1;
          ignore (Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false);
          let lead, visit = Smp.drain_queue m ~work:(fun _ _ -> -1) in
          Machine.chain_item m ~lead:(lead 1) 1 visit);
      Machine.run m;
      let failures = ref [] in
      Kernel.check_quiescent m (fun f -> failures := f :: !failures);
      check (Alcotest.list Alcotest.string) "the unexecuted CFD is reported"
        [ "cpu1: 1 CFD(s) queued but 0 executed and acked at quiescence" ]
        !failures)
    [ paper; Opts.Oracle ]

(* Enqueueing work for k targets is 2k line writes, one charge run. *)
let test_enqueue_work_suspensions () =
  let opts =
    Opts.map_paper
      (fun p -> { p with Opts.cacheline_consolidation = true })
      (Opts.baseline ~safe:true)
  in
  let m = Machine.create ~topo:(Topology.flat 8) ~opts ~seed:3L () in
  let e = m.Machine.engine in
  keep_busy m 10_000;
  let suspensions = ref (-1) and queued = ref 0 in
  Process.spawn e ~name:"initiator" (fun () ->
      let targets = Cpuset.create ~bits:8 in
      List.iter (Cpuset.set targets) [ 1; 2; 3; 5; 7 ];
      let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 () in
      let s0 = Engine.suspensions () in
      queued := Array.length (Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false);
      suspensions := Engine.suspensions () - s0);
  Machine.run m;
  check int_t "five CFDs" 5 !queued;
  check int_t "one suspension for ten line writes" 1 !suspensions

(* A sync-broadcast broadcast on a 1024-CPU machine, every other CPU idle:
   words and suspensions of the second of two single-page shootdowns from
   cpu 0 (the first builds each responder's run state), from its start to
   the engine's drain. *)
let broadcast_1024 n =
  let m =
    Machine.create ~topo:(Topology.flat n)
      ~opts:(Opts.with_protocol Opts.Sync_broadcast ~safe:true)
      ~seed:3L ()
  in
  let mm = Machine.new_mm m in
  let w0 = ref 0.0 and s0 = ref 0 in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      let vpn = map_pages m mm ~pages:1 in
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      s0 := Engine.suspensions ();
      w0 := Gc.minor_words ();
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn);
  Kernel.run m;
  let words = Gc.minor_words () -. !w0 and s = Engine.suspensions () - !s0 in
  Kernel.check_run m ~who:"broadcast";
  check int_t "every other CPU IPI'd twice" (2 * (n - 1)) (Apic.ipis_sent m.Machine.apic);
  (int_of_float words, s)

(* The 512 extra responders of a 1024-CPU broadcast over a 512-CPU one
   cost no suspension, and 3 minor words each: the IRQ's cell on the
   CPU's pending queue. The handler is a step function run from the CPU's
   dispatch events in the CPU's own run record, and the skipped flush,
   the status-line read and the done-bit atomic allocate nothing. *)
let test_sync_broadcast_1024 () =
  let w512, s512 = broadcast_1024 512 in
  let w1024, s1024 = broadcast_1024 1024 in
  check int_t "no responder suspends" s512 s1024;
  check int_t "3 minor words per IPI" (3 * 512) (w1024 - w512)

(* A paper responder interrupted in user mode, whose flush of a 3-page
   range defers the user-PCID half (§3.4), runs that deferred flush (3
   INVLPGs and an LFENCE) before its handler returns, as steps of the
   handler's one charge run: on a busy engine the shootdown costs exactly
   the suspensions of the same shootdown with nothing deferred, where the
   handler flushes both halves eagerly. *)
let ranged_tail ~in_context =
  let opts =
    { (Opts.with_protocol paper ~safe:true) with Opts.in_context_flush = in_context }
  in
  let m = Machine.create ~topo:(Topology.flat 2) ~opts ~seed:3L () in
  let mm = Machine.new_mm m in
  Trace.enable m.Machine.trace;
  keep_busy m 100_000;
  let stop = ref false and s = ref 0 and vpn = ref 0 in
  Kernel.spawn_user m ~cpu:1 ~mm ~name:"responder" (fun () ->
      Cpu.compute_until (Machine.cpu m 1) ~chunk:100 (fun () -> !stop));
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      vpn := map_pages m mm ~pages:3;
      Machine.delay m 2_000;
      let s0 = Engine.suspensions () in
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:!vpn ~pages:3 ();
      Machine.delay m 5_000;
      s := Engine.suspensions () - s0;
      stop := true;
      (* The initiator's own deferred user flush. *)
      Shootdown.return_to_user m ~cpu:0 ~has_stack:true);
  Kernel.run m;
  Kernel.check_run m ~who:"ranged tail";
  let tails = ref [] in
  Trace.iter m.Machine.trace (fun r ->
      match r.Trace.event with
      | Trace.Deferred_flush_exec { full; entries } when r.Trace.cpu = 1 ->
          tails := (full, entries) :: !tails
      | _ -> ());
  (!s, List.rev !tails)

let test_ranged_tail_one_run () =
  let s_tail, tails = ranged_tail ~in_context:true in
  let s_eager, eager_tails = ranged_tail ~in_context:false in
  check Alcotest.(list (pair bool int)) "the responder ran a 3-page ranged tail"
    [ (false, 3) ] tails;
  check Alcotest.(list (pair bool int)) "nothing deferred without §3.4" [] eager_tails;
  check int_t "the tail adds no suspension" s_eager s_tail

(* Charge-run walkers are kept per engine tag, and only processes hold
   them: a responder's handler run keeps its place in its CPU's record.
   Tags are reused once their process ends, so [k] processes that run one
   after another, each broadcasting to 63 idle responders on a busy engine
   (every charge run suspends), leave one walker per distinct tag they
   held, a handful that does not grow with [k] or with the IRQs run. *)
let walkers_after k =
  let m =
    Machine.create ~topo:(Topology.flat 64)
      ~opts:(Opts.with_protocol Opts.Sync_broadcast ~safe:true)
      ~seed:3L ()
  in
  let mm = Machine.new_mm m in
  keep_busy m 1_000_000;
  let tags = ref [] in
  let rec start i =
    if i < k then
      Kernel.spawn_user m ~cpu:(i mod 2) ~mm ~name:"initiator" (fun () ->
          tags := Process.self_tag m.Machine.engine :: !tags;
          let vpn = map_pages m mm ~pages:1 in
          Shootdown.flush_tlb_page m ~from:(i mod 2) ~mm ~vpn;
          Helpers.schedule m.Machine.engine ~delay:1 (fun () -> start (i + 1)))
  in
  start 0;
  Kernel.run m;
  Kernel.check_run m ~who:"walkers";
  check int_t "every initiator broadcast" (k * 63) (Apic.ipis_sent m.Machine.apic);
  let walkers =
    Array.fold_left
      (fun n w -> if w.Machine.w_phases > 0 then n + 1 else n)
      0 m.Machine.walkers
  in
  check int_t "one walker per tag an initiator held"
    (List.length (List.sort_uniq Int.compare !tags))
    walkers;
  walkers

let test_walkers_bounded_by_live_processes () =
  check int_t "as many walkers for 24 initiators as for 8" (walkers_after 8)
    (walkers_after 24)

let suite =
  [
    Alcotest.test_case "opts key distinct per protocol" `Quick
      test_opts_key_distinct_per_protocol;
    Alcotest.test_case "memo cells not shared across protocols" `Quick
      test_memo_cells_not_shared_across_protocols;
    Alcotest.test_case "sync-broadcast IPIs every CPU" `Quick
      test_sync_broadcast_ipis_every_cpu;
    Alcotest.test_case "queue-spin ring overflow -> flush-all" `Quick
      test_queue_ring_overflow_collapses_to_flush_all;
    Alcotest.test_case "oracle ignores optimization flags" `Quick
      test_oracle_ignores_combo_flags;
    Alcotest.test_case "in-context changes cycles under sync and queue" `Quick
      test_in_context_changes_cycles;
    Alcotest.test_case "backends match oracle on corpus" `Quick
      test_backends_match_oracle_on_corpus;
    Alcotest.test_case "queue-spin resends only to un-acked CPUs" `Quick
      test_queue_resend_only_unacked;
    Alcotest.test_case "paper workload cells reused from figure plans" `Quick
      test_paper_workload_cells_reused;
    Alcotest.test_case "workload report byte-identical at any -j" `Quick
      test_workloads_identical_at_any_j;
    Alcotest.test_case "shootout byte-identical at any -j" `Quick
      test_shootout_identical_at_any_j;
    Alcotest.test_case "suspensions: one per responder charge run" `Quick
      test_responder_suspensions;
    Alcotest.test_case "suspensions: enqueue_work is one charge run" `Quick
      test_enqueue_work_suspensions;
    Alcotest.test_case "suspensions: skipped sync-broadcast responder is one run"
      `Quick test_sync_skipped_responder_one_run;
    Alcotest.test_case "suspensions: a due responder flush is one run" `Quick
      test_due_responder_one_run;
    Alcotest.test_case "suspensions: k queued requests drain in one run" `Quick
      test_drain_k_requests_one_run;
    Alcotest.test_case "csd conservation: an unexecuted CFD is reported" `Quick
      test_unexecuted_cfd_reported;
    Alcotest.test_case "suspensions: a 1024-CPU sync broadcast's responders" `Quick
      test_sync_broadcast_1024;
    Alcotest.test_case "suspensions: a ranged return-to-user tail is in the run" `Quick
      test_ranged_tail_one_run;
    Alcotest.test_case "walkers: bounded by live processes" `Quick
      test_walkers_bounded_by_live_processes;
  ]
