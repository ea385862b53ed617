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
  let owns b protocol =
    let config = micro_config protocol in
    let before = Shard.owned b in
    let (_ : unit -> Microbench.result) =
      Shard.memo_cell b memo ~key:(Microbench.config_key config) ~weight:1.0 (fun () ->
          Microbench.run config)
    in
    Shard.owned b - before
  in
  let (_ : Shard.plan) =
    Shard.plan "memo" @@ fun b ->
    check int_t "paper owns its cell" 1 (owns b paper);
    check int_t "queue-spin owns a distinct cell" 1 (owns b Opts.Queue_spin);
    fun () -> ("", [])
  in
  (* A later plan that only re-registers paper owns no job, so executing
     it runs nothing; its outcome counts the one reused cell. *)
  let again =
    Shard.plan "again" @@ fun b ->
    check int_t "re-registering paper owns nothing" 0 (owns b paper);
    fun () -> ("", [])
  in
  let outcomes = Shard.execute ~jobs:1 [ again ] in
  check (Alcotest.list int_t) "re-registering paper reuses it" [ 1 ]
    (List.map (fun o -> o.Shard.out_reused) outcomes)

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
  (* Ranged flushes that fit the ring post per-page entries: only the
     posted vpns are invalidated. One entry past its capacity (8, as in
     charmos) collapses the post to a whole-TLB flush-all on the
     responder. Both sides of the boundary are pinned. *)
  let ring = 8 in
  let full_survives = ref false and overflow_gone = ref false in
  let _m =
    with_pair ~opts:(Opts.with_protocol Opts.Queue_spin ~safe:true) (fun m mm ->
        let pages = ring + 1 in
        let vpn = map_pages m mm ~pages in
        let other = map_pages m mm ~pages:1 in
        warm m ~cpu:0 ~start_vpn:vpn ~pages;
        plant m ~cpu:14 ~vpn:other;
        (* [ring] entries fill the ring exactly: [other] must survive. *)
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:ring ~stride:Tlb.Four_k ~freed_tables:false;
        Machine.delay m 10_000;
        full_survives := planted_present m ~cpu:14 ~vpn:other;
        (* [ring + 1] entries overflow: the responder flushes all. *)
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages ~stride:Tlb.Four_k ~freed_tables:false;
        Machine.delay m 10_000;
        overflow_gone := not (planted_present m ~cpu:14 ~vpn:other))
  in
  check bool_t "unposted entry survives a drain of a full ring" true !full_survives;
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
          Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:8 ~stride:Tlb.Four_k ~freed_tables:false;
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
  let (_ : Shard.plan) =
    Shard.plan "bench" @@ fun b ->
    let (_ : unit -> Bigmachine.result) =
      Figures.bigmachine_cell b ~memo:bigmachine_memo ~quick:true ~label:""
        ~opts:(Opts.all ~safe:true) ~n_cpus:56
    in
    check int_t "the bench registration owns the 56-CPU cell" 1 (Shard.owned b);
    fun () -> ("", [])
  in
  let f10 =
    List.length fig10.Figures.sys_threads * List.length fig10.Figures.sys_seeds
  in
  let f11 =
    List.length fig11.Figures.ap_cores * List.length fig11.Figures.ap_seeds
  in
  (* A plan reading only the paper backend's cells owns no job, so
     executing it runs nothing; every one of its cells counts as reused. *)
  let paper_cells =
    Shard.plan "paper" @@ fun b ->
    let opts = List.assoc "paper" (Shootout.workload_backends ()) in
    let (_ : unit -> (int * float * int) list) =
      Figures.fig10_backend_column b ~memo:sysbench_memo ~tag:"paper" ~opts fig10
    in
    let (_ : unit -> (int * float * int) list) =
      Figures.fig11_backend_column b ~memo:apache_memo ~tag:"paper" ~opts fig11
    in
    let (_ : unit -> Bigmachine.result) =
      Figures.bigmachine_cell b ~memo:bigmachine_memo ~quick:true ~label:"" ~opts
        ~n_cpus:56
    in
    check int_t "the paper backend owns no cell" 0 (Shard.owned b);
    fun () -> ("", [])
  in
  let outcomes = Shard.execute ~jobs:1 [ paper_cells ] in
  check (Alcotest.list int_t) "every paper cell reused from the earlier plans"
    [ f10 + f11 + 1 ]
    (List.map (fun o -> o.Shard.out_reused) outcomes);
  let (_ : Shard.plan) =
    Shard.plan "workloads" @@ fun b ->
    let (_ : unit -> string * Bench_perf.row list) =
      Shootout.workload_cells b ~sysbench_memo ~apache_memo ~bigmachine_memo ~quick:true
        ()
    in
    (* Four backends register f10 + f11 + 1 cells each; owning exactly
       three backends' worth means the paper's were all reused. *)
    check int_t "only the other three backends own cells"
      (3 * (f10 + f11 + 1))
      (Shard.owned b);
    fun () -> ("", [])
  in
  ()

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

(* ---------- one writer, one reader ---------- *)

(* The CLI's JSON is the bench's BENCH_PERF rows, so it reads back through
   the one reader the perf gate uses, from a file. *)
let read_back text =
  let path = Filename.temp_file "shootout" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let rows = Bench_perf.load path in
  Sys.remove path;
  match rows with Ok rows -> rows | Error e -> Alcotest.failf "read back: %s" e

let keys rows = List.map (fun r -> (r.Bench_perf.family, r.Bench_perf.key)) rows

let test_shootout_json_reads_back () =
  let rows = read_back (Shootout.run ~iterations:30 ~jobs:1 Shootout.Json) in
  check
    Alcotest.(list (pair string string))
    "one shootout row per backend, keyed by label"
    (List.map
       (fun b -> ("shootout", b))
       [ "paper"; "paper-baseline"; "oracle"; "sync-broadcast"; "queue-spin" ])
    (keys rows);
  check bool_t "every row carries its initiator cycles" true
    (List.for_all (fun r -> Bench_perf.value r "initiator_mean" <> None) rows)

let test_workloads_json_reads_back () =
  let rows = read_back (Shootout.run_workloads ~quick:true ~jobs:2 Shootout.Json) in
  check
    Alcotest.(list (pair string string))
    "one workloads row per (experiment, backend)"
    (List.concat_map
       (fun experiment ->
         List.map
           (fun b -> ("workloads", experiment ^ "/" ^ b))
           [ "paper"; "oracle"; "sync-broadcast"; "queue-spin" ])
       [ "wl-fig10"; "wl-fig11"; "wl-bigmachine-56" ])
    (keys rows);
  check bool_t "a standalone run owns every cell" true
    (List.for_all (fun r -> not r.Bench_perf.memoized) rows)

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
          let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
          let targets = Cpuset.create ~bits:4 in
          Cpuset.set targets 1;
          for _ = 1 to k do
            Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false
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
          let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
          let targets = Cpuset.create ~bits:2 in
          Cpuset.set targets 1;
          Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false;
          let lead, visit = Smp.drain_queue m ~work:(fun _ _ -> -1) in
          Process.chain_item m.Machine.engine ~lead:(lead 1) 1 visit);
      Machine.run m;
      let failures = ref [] in
      Kernel.check_quiescent m (fun f -> failures := f :: !failures);
      check (Alcotest.list Alcotest.string) "the unexecuted CFD is reported"
        [ "cpu1: 1 CFD(s) queued but 0 executed and acked at quiescence" ]
        !failures)
    [ paper; Opts.Oracle ]

(* A drain whose work is the ack write, then its landing, marking the
   request executed: a responder with nothing else to do. *)
let ack_drain m ~me =
  Smp.drain_queue m ~work:(fun cfd phase ->
      match phase with
      | 0 ->
          cfd.Percpu.cfd_executed <- true;
          Smp.ack_write m ~me cfd
      | _ ->
          Smp.ack_landed m ~me cfd;
          -1)

(* A CSD slot's life. Under early ack the initiator sees the ack while
   the responder still flushes, so its next request to that CPU finds the
   slot busy: a fresh record on the slot's line takes it, and the request
   in flight keeps its own info. Once released, the slot's record is
   reused. *)
let test_csd_slot_lifecycle () =
  let m =
    Machine.create ~topo:(Topology.flat 2)
      ~opts:(Opts.with_protocol paper ~safe:true)
      ~seed:3L ()
  in
  let e = m.Machine.engine and me = Machine.percpu m 0 in
  let lead, visit =
    Smp.drain_queue m ~work:(fun cfd phase ->
        match phase with
        | 0 -> Smp.ack_write m ~me:1 cfd
        | 1 ->
            Smp.ack_landed m ~me:1 cfd;
            5_000
        | _ ->
            cfd.Percpu.cfd_executed <- true;
            -1)
  in
  let info n = Flush_info.ranged ~mm_id:0 ~start_vpn:n ~pages:1 ~new_tlb_gen:n ~stride:Tlb.Four_k ~freed_tables:false in
  let info1 = info 1 and info2 = info 2 in
  let first = ref Percpu.no_cfd and second = ref Percpu.no_cfd in
  let targets = Cpuset.create ~bits:2 in
  Cpuset.set targets 1;
  Process.spawn e ~name:"initiator" (fun () ->
      Smp.enqueue_work m ~from:0 ~targets ~info:info1 ~early_ack:true;
      first := me.Percpu.csds.(1);
      Process.spawn e ~name:"responder" (fun () ->
          Process.chain_item e ~lead:(lead 1) 1 visit);
      Smp.wait_for_acks m ~from:0 ~targets;
      check bool_t "acked early, still flushing" false !first.Percpu.cfd_executed;
      Smp.enqueue_work m ~from:0 ~targets ~info:info2 ~early_ack:true;
      second := me.Percpu.csds.(1);
      check bool_t "a busy slot takes a fresh record" true (!second != !first);
      check bool_t "on the slot's line" true
        (!second.Percpu.cfd_line == !first.Percpu.cfd_line);
      check bool_t "the request in flight keeps its info" true
        (!first.Percpu.cfd_info == info1);
      Smp.wait_for_acks m ~from:0 ~targets);
  Machine.run m;
  check bool_t "both executed" true
    (!first.Percpu.cfd_executed && !second.Percpu.cfd_executed);
  check bool_t "the second request's info" true (!second.Percpu.cfd_info == info2);
  check int_t "both released" 2 (Machine.percpu m 1).Percpu.csd_released;
  Process.spawn e ~name:"initiator" (fun () ->
      Smp.enqueue_work m ~from:0 ~targets ~info:info1 ~early_ack:false;
      check bool_t "a released slot is reused" true (me.Percpu.csds.(1) == !second);
      check bool_t "busy again" true !second.Percpu.cfd_busy;
      let lead, visit = ack_drain m ~me:1 in
      Process.chain_item e ~lead:(lead 1) 1 visit);
  Machine.run m;
  Kernel.check_run m ~who:"csd slots";
  check bool_t "released again" false !second.Percpu.cfd_busy

(* Two initiators queueing to one target: its drain takes their requests
   in the order they were queued, one initiator's second request (a fresh
   record, the first still queued) included. *)
let test_csd_two_initiators_fifo () =
  let m =
    Machine.create ~topo:(Topology.flat 3)
      ~opts:(Opts.with_protocol paper ~safe:true)
      ~seed:3L ()
  in
  let e = m.Machine.engine in
  let order = ref [] in
  let lead, visit =
    Smp.drain_queue m ~work:(fun cfd phase ->
        match phase with
        | 0 ->
            order := (cfd.Percpu.cfd_initiator, cfd.Percpu.cfd_seq) :: !order;
            cfd.Percpu.cfd_executed <- true;
            Smp.ack_write m ~me:1 cfd
        | _ ->
            Smp.ack_landed m ~me:1 cfd;
            -1)
  in
  let targets = Cpuset.create ~bits:3 in
  Cpuset.set targets 1;
  let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
  let queued = ref [] in
  Process.spawn e ~name:"initiators" (fun () ->
      List.iter
        (fun from ->
          Smp.enqueue_work m ~from ~targets ~info ~early_ack:false;
          let cfd = (Machine.percpu m from).Percpu.csds.(1) in
          queued := (from, cfd.Percpu.cfd_seq) :: !queued)
        [ 0; 2; 0; 2 ];
      Process.chain_item e ~lead:(lead 1) 1 visit);
  Machine.run m;
  Kernel.check_run m ~who:"two initiators";
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "FIFO" (List.rev !queued) (List.rev !order);
  check int_t "all four released" 4 (Machine.percpu m 1).Percpu.csd_released

(* On a warm 2-CPU machine whose delays take the fast path, a request's
   enqueue, its drain on the responder and the ack allocate nothing: the
   request is the initiator's CSD slot, reused once released, the call
   queue links through it, and the enqueue and drain runs are built once.
   Measured in the default (release) profile, like the page-fault pins. *)
let test_ipi_round_words () =
  let m =
    Machine.create ~topo:(Topology.flat 2)
      ~opts:(Opts.with_protocol paper ~safe:true)
      ~seed:3L ()
  in
  let e = m.Machine.engine in
  let lead, visit = ack_drain m ~me:1 in
  let targets = Cpuset.create ~bits:2 in
  Cpuset.set targets 1;
  let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
  let round () =
    Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false;
    Process.chain_item e ~lead:(lead 1) 1 visit
  in
  let words = ref (-1) in
  Process.spawn e ~name:"initiator" (fun () ->
      round ();
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        round ()
      done;
      words := int_of_float (Gc.minor_words () -. before));
  Machine.run m;
  Kernel.check_run m ~who:"ipi rounds";
  check int_t "every request released" 101 (Machine.percpu m 1).Percpu.csd_released;
  check int_t "minor words" 0 !words

(* Minor words of ten warm one-page shootdowns from cpu 0 of a 2-CPU
   machine to cpu 1, which computes in the same address space, inside one
   system call (whose exit runs the deferred user flushes), after three
   warm-up calls. Every call sends an IPI. The words of one call vary
   with where cpu 1's compute quantum stands when it lands (all: 63-85,
   baseline: 50-62, oracle: 28-40), so the ten calls' total is pinned,
   as the baseline for an allocation-free shootdown round. *)
let shootdown_words opts =
  let m = Machine.create ~topo:(Topology.flat 2) ~opts ~seed:3L () in
  let mm = Machine.new_mm m in
  let stop = ref false and words = ref (-1) and shootdowns = ref (-1) in
  Kernel.spawn_user m ~cpu:1 ~mm ~name:"responder" (fun () ->
      while not !stop do
        Cpu.compute (Machine.cpu m 1) ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:1 () in
      Access.write m ~cpu:0 ~vaddr:addr;
      let vpn = Addr.vpn_of_addr addr in
      let flushes n =
        for _ = 1 to n do
          Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn
        done
      in
      Kernel.in_syscall m ~cpu:0 (fun () -> flushes 3);
      let s0 = m.Machine.stats.Machine.shootdowns in
      Kernel.in_syscall m ~cpu:0 (fun () ->
          let before = Gc.minor_words () in
          flushes 10;
          words := int_of_float (Gc.minor_words () -. before));
      shootdowns := m.Machine.stats.Machine.shootdowns - s0;
      stop := true);
  Kernel.run m;
  Kernel.check_run m ~who:"shootdown words";
  check int_t "every call a shootdown" 10 !shootdowns;
  !words

let test_shootdown_words () =
  check int_t "all: minor words" 788 (shootdown_words (Opts.all ~safe:true));
  check int_t "baseline: minor words" 556 (shootdown_words (Opts.baseline ~safe:true));
  check int_t "oracle: minor words" 368
    (shootdown_words (Opts.with_protocol Opts.Oracle ~safe:true))

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
      let info = Flush_info.ranged ~mm_id:0 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
      let s0 = Engine.suspensions () in
      Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false;
      suspensions := Engine.suspensions () - s0;
      queued :=
        Cpuset.fold (fun n c -> n + (Machine.percpu m c).Percpu.csd_queued) 0 targets);
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
   cost no suspension and no minor word: the IRQ waits in the CPU's
   pending ring, grown at the first broadcast, the handler is a step
   function run from the CPU's dispatch events in the CPU's own run
   record, and the skipped flush, the status-line read and the done-bit
   atomic allocate nothing. *)
let test_sync_broadcast_1024 () =
  let w512, s512 = broadcast_1024 512 in
  let w1024, s1024 = broadcast_1024 1024 in
  check int_t "no responder suspends" s512 s1024;
  check int_t "0 minor words per IPI" 0 (w1024 - w512)

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
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:!vpn ~pages:3 ~stride:Tlb.Four_k ~freed_tables:false;
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

(* ---------- the shootdown frame ---------- *)

(* Every flush entry point closes the checker window it opened before it
   returns, whatever the backend and whether or not a remote CPU holds
   the mm: one CPU leaves no remote target, four with the mm loaded on
   cpu 1 give one (every CPU, for the broadcasting backends). The lazy
   strawman never sends; the CoW entry point runs the §4.1 round under
   [cow] and the ordinary flush elsewhere. *)
let test_window_closed_on_return () =
  let paper_with f = Opts.map_paper f (Opts.baseline ~safe:true) in
  let entries =
    [
      ("flush_tlb_page", fun m mm vpn -> Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn);
      ( "flush_tlb_mm_range",
        fun m mm start_vpn ->
          Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn ~pages:4 ~stride:Tlb.Four_k ~freed_tables:false );
      ("flush_tlb_mm", fun m mm _ -> Shootdown.flush_tlb_mm m ~from:0 ~mm);
      ( "flush_tlb_page_cow",
        fun m mm vpn ->
          Shootdown.flush_tlb_page_cow m ~from:0 ~mm ~vpn ~executable:false );
    ]
  in
  List.iter
    (fun (label, opts, sends) ->
      List.iter
        (fun n ->
          let m = Machine.create ~topo:(Topology.flat n) ~opts ~seed:3L () in
          let mm = Machine.new_mm m in
          Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
              let vpn = map_pages m mm ~pages:4 in
              if n > 1 then Sched.switch_mm m ~cpu:1 mm;
              List.iter
                (fun (entry, flush) ->
                  let before = Checker.open_windows m.Machine.checker in
                  flush m mm vpn;
                  check int_t
                    (Printf.sprintf "%s, %d CPU(s): %s closed its window" label n entry)
                    before
                    (Checker.open_windows m.Machine.checker))
                entries;
              Shootdown.return_to_user m ~cpu:0 ~has_stack:true);
          Kernel.run m;
          Kernel.check_run m ~who:label;
          check bool_t
            (Printf.sprintf "%s, %d CPU(s): shootdowns sent" label n)
            (sends && n > 1)
            (m.Machine.stats.Machine.shootdowns > 0))
        [ 1; 4 ])
    [
      ("paper", Opts.baseline ~safe:true, true);
      ("paper all", Opts.all ~safe:true, true);
      ("paper cow", paper_with (fun p -> { p with Opts.cow_avoid_flush = true }), true);
      ( "paper cow serialized",
        paper_with (fun p -> { p with Opts.cow_avoid_flush = true; serialized = true }),
        true );
      ("oracle", Opts.oracle ~safe:true, true);
      ("sync-broadcast", Opts.with_protocol Opts.Sync_broadcast ~safe:true, true);
      ("queue-spin", Opts.with_protocol Opts.Queue_spin ~safe:true, true);
      ( "lazy strawman",
        { (Opts.baseline ~safe:true) with Opts.fault = Some Opts.Lazy_strawman },
        false );
    ]

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
    Alcotest.test_case "shootout json reads back as BENCH_PERF rows" `Quick
      test_shootout_json_reads_back;
    Alcotest.test_case "workloads json reads back as BENCH_PERF rows" `Quick
      test_workloads_json_reads_back;
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
    Alcotest.test_case "every flush call closes its window before returning" `Quick
      test_window_closed_on_return;
    Alcotest.test_case "csd slots: fresh record while busy, reuse once released" `Quick
      test_csd_slot_lifecycle;
    Alcotest.test_case "csd slots: two initiators drain in FIFO order" `Quick
      test_csd_two_initiators_fifo;
    Alcotest.test_case "allocation: an IPI round's enqueue, drain and ack" `Quick
      test_ipi_round_words;
    Alcotest.test_case "allocation: ten warm one-page shootdowns" `Quick
      test_shootdown_words;
  ]
