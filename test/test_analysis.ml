(* Tests for the analysis layer: the vector-clock happens-before analyzer
   (synthetic traces and real simulator runs) and the systematic
   interleaving explorer, including the ISSUE's exhaustive-small sweep over
   every combination of the paper's general optimizations. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- happens-before on synthetic traces --- *)

let rec_ ~time ~cpu event = { Trace.time; cpu; actor = Printf.sprintf "cpu%d" cpu; event }

let flush_start ~time ~cpu ~window =
  rec_ ~time ~cpu (Trace.Flush_start { window; mm_id = 1; start_vpn = 10; span = 1; full = false })

let stale ~time ~cpu ~benign =
  rec_ ~time ~cpu (Trace.Stale_hit { mm_id = 1; vpn = 10; benign; detail = "test" })

(* Replay the records into a trace buffer, each at its time on its CPU,
   and analyze that buffer. *)
let analyze records =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true e in
  List.iter
    (fun (r : Trace.record) ->
      Helpers.schedule e ~delay:r.Trace.time (fun () ->
          Trace.event t ~cpu:r.Trace.cpu r.Trace.event))
    records;
  Engine.run e;
  Hb.analyze_trace t

let records trace =
  let acc = ref [] in
  Trace.iter trace (fun r -> acc := r :: !acc);
  List.rev !acc

let test_hb_empty () =
  let r = analyze [] in
  check int_t "events" 0 r.Hb.events;
  check int_t "hits" 0 r.Hb.stale_hits;
  check int_t "genuine" 0 r.Hb.genuine

let test_hb_program_order_is_genuine () =
  (* Same CPU throughout: the window close is program-ordered before the
     hit, so nothing excuses it. *)
  let trace =
    [
      rec_ ~time:0 ~cpu:0 (Trace.Pte_write { mm_id = 1; vpn = 10; pages = 1 });
      flush_start ~time:1 ~cpu:0 ~window:1;
      rec_ ~time:2 ~cpu:0 (Trace.Flush_done { window = 1; mm_id = 1 });
      stale ~time:3 ~cpu:0 ~benign:false;
    ]
  in
  let r = analyze trace in
  check int_t "one hit" 1 r.Hb.stale_hits;
  check int_t "genuine" 1 r.Hb.genuine;
  match r.Hb.findings with
  | [ f ] ->
      check bool_t "verdict" true (f.Hb.f_verdict = Hb.Genuine);
      check bool_t "chain nonempty" true (f.Hb.f_chain <> []);
      (* The chain ends at the hit and includes the window close that
         proves the ordering. *)
      check bool_t "chain has close" true
        (List.exists
           (fun (_, (r : Trace.record)) ->
             match r.Trace.event with Trace.Flush_done _ -> true | _ -> false)
           f.Hb.f_chain)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_hb_hit_before_close_is_in_flight () =
  (* The hit CPU's later ack feeds the initiator's all-acks-seen, which
     precedes the close: the hit provably landed inside the window. *)
  let trace =
    [
      rec_ ~time:0 ~cpu:0 (Trace.Pte_write { mm_id = 1; vpn = 10; pages = 1 });
      flush_start ~time:1 ~cpu:0 ~window:1;
      rec_ ~time:2 ~cpu:0 (Trace.Ipi_send { seq = 1; target = 1 });
      stale ~time:3 ~cpu:1 ~benign:true;
      rec_ ~time:4 ~cpu:1 (Trace.Ipi_begin { seq = 1; initiator = 0; early_ack = false });
      rec_ ~time:5 ~cpu:1 (Trace.Ipi_ack { seq = 1; initiator = 0; early = false });
      rec_ ~time:6 ~cpu:0 (Trace.Acks_seen { seqs = [ 1 ] });
      rec_ ~time:7 ~cpu:0 (Trace.Flush_done { window = 1; mm_id = 1 });
    ]
  in
  let r = analyze trace in
  check int_t "proved in-flight" 1 r.Hb.proved_in_flight;
  check int_t "no genuine" 0 r.Hb.genuine;
  check int_t "agrees with checker" 0 r.Hb.checker_disagreements

let test_hb_unsynchronized_close_proves_nothing () =
  (* No synchronization edge ever orders the hit against the close (the
     LATR shape: no IPI, no ack): the window must not excuse the hit. The
     checker's wall-clock flag decides between latent and genuine. *)
  let trace ~benign =
    [
      rec_ ~time:0 ~cpu:0 (Trace.Pte_write { mm_id = 1; vpn = 10; pages = 1 });
      flush_start ~time:1 ~cpu:0 ~window:1;
      stale ~time:2 ~cpu:1 ~benign;
      rec_ ~time:3 ~cpu:0 (Trace.Flush_done { window = 1; mm_id = 1 });
    ]
  in
  let r = analyze (trace ~benign:true) in
  check int_t "not proved" 0 r.Hb.proved_in_flight;
  check int_t "latent when checker excused it" 1 r.Hb.unordered_latent;
  let r = analyze (trace ~benign:false) in
  check int_t "genuine when checker flagged it" 1 r.Hb.genuine

let test_hb_unclosed_window_is_in_flight () =
  let trace =
    [ flush_start ~time:0 ~cpu:0 ~window:1; stale ~time:1 ~cpu:1 ~benign:true ]
  in
  let r = analyze trace in
  check int_t "proved in-flight" 1 r.Hb.proved_in_flight;
  check int_t "no genuine" 0 r.Hb.genuine

let test_hb_return_to_user_expires_excuse () =
  (* §3.4 contract: once the hit CPU handled the window's IPI and then
     completed a return-to-user, every deferred flush must have executed —
     a later stale hit can no longer hide behind that window. *)
  let handled_then_resumed ~resume =
    [
      rec_ ~time:0 ~cpu:0 (Trace.Pte_write { mm_id = 1; vpn = 10; pages = 1 });
      flush_start ~time:1 ~cpu:0 ~window:1;
      rec_ ~time:2 ~cpu:0 (Trace.Ipi_send { seq = 1; target = 1 });
      rec_ ~time:3 ~cpu:1 (Trace.Ipi_begin { seq = 1; initiator = 0; early_ack = true });
      rec_ ~time:4 ~cpu:1 (Trace.Ipi_ack { seq = 1; initiator = 0; early = true });
    ]
    @ (if resume then [ rec_ ~time:5 ~cpu:1 Trace.User_resume ] else [])
    @ [ stale ~time:6 ~cpu:1 ~benign:false ]
  in
  (* Without the return-to-user the window (still open) excuses the hit... *)
  let r = analyze (handled_then_resumed ~resume:false) in
  check int_t "still excused" 1 r.Hb.proved_in_flight;
  check int_t "not genuine" 0 r.Hb.genuine;
  (* ...after it, the same hit is a genuine protocol race. *)
  let r = analyze (handled_then_resumed ~resume:true) in
  check int_t "excuse expired" 0 r.Hb.proved_in_flight;
  check int_t "genuine" 1 r.Hb.genuine;
  match r.Hb.findings with
  | [ f ] ->
      check bool_t "chain shows the resume" true
        (List.exists
           (fun (_, (r : Trace.record)) -> r.Trace.event = Trace.User_resume)
           f.Hb.f_chain)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* --- happens-before on real simulator traces --- *)

let run_demo ~opts ~rounds =
  let m = Scenarios.early_ack_demo ~opts ~rounds () in
  Trace.enable m.Machine.trace;
  Kernel.run m;
  (m, Hb.analyze_trace m.Machine.trace)

let test_demo_races_proved_benign () =
  let opts = Opts.all_general ~safe:true in
  let m, r = run_demo ~opts ~rounds:20 in
  check bool_t "stale hits occurred" true (r.Hb.stale_hits > 0);
  check bool_t "some proved in-flight" true (r.Hb.proved_in_flight > 0);
  check int_t "no genuine race" 0 r.Hb.genuine;
  check int_t "hb agrees with checker" 0 r.Hb.checker_disagreements;
  check int_t "checker clean too" 0 (Checker.violation_count m.Machine.checker)

let test_injected_bug_is_flagged_genuine () =
  let opts =
    { (Opts.all_general ~safe:true) with Opts.fault = Some Opts.Skip_deferred_flush }
  in
  let m, r = run_demo ~opts ~rounds:20 in
  check bool_t "genuine races found" true (r.Hb.genuine > 0);
  check bool_t "checker caught them too" true (Checker.violation_count m.Machine.checker > 0);
  let genuine_findings =
    List.filter (fun f -> f.Hb.f_verdict = Hb.Genuine) r.Hb.findings
  in
  check bool_t "genuine finding reported" true (genuine_findings <> []);
  List.iter
    (fun f ->
      check bool_t "chain nonempty" true (f.Hb.f_chain <> []);
      (* Every chain ends at the stale hit it explains. *)
      match List.rev f.Hb.f_chain with
      | (_, { Trace.event = Trace.Stale_hit _; _ }) :: _ -> ()
      | _ -> Alcotest.fail "chain does not end at the stale hit")
    genuine_findings;
  (* At least one chain shows the §3.4 violation shape: the responder
     handled the IPI, returned to user, and still hit the stale entry. *)
  check bool_t "a chain shows return-to-user" true
    (List.exists
       (fun f ->
         List.exists
           (fun (_, (r : Trace.record)) -> r.Trace.event = Trace.User_resume)
           f.Hb.f_chain)
       genuine_findings)

let test_latr_strawman_flagged_genuine () =
  (* The paper's §6 claim: LATR-style lazy batching (flush locally, never
     notify remote CPUs) is unsafe. With no IPI there is no happens-before
     edge to any remote CPU, so its post-close stale hits are genuine. *)
  let opts = { (Opts.baseline ~safe:true) with Opts.fault = Some Opts.Lazy_strawman } in
  let m, r = run_demo ~opts ~rounds:10 in
  check bool_t "stale hits occurred" true (r.Hb.stale_hits > 0);
  check bool_t "flagged genuine" true (r.Hb.genuine > 0);
  check bool_t "checker concurs" true (Checker.violation_count m.Machine.checker > 0)

(* Fork, KSM and migration open their invalidation windows through
   [Machine.begin_window] like every other kernel path, so a traced run
   that does all three, while a sibling thread keeps reading the pages,
   has one Flush_start and one Flush_done per checker window. Every PTE
   they change has a Pte_write for its page inside a window of the same
   CPU that covers it: fork write-protects the four pages (from the
   highest), the CoW break gives page 2 a copy, KSM write-protects pages
   0 and 1 and retargets page 1, and migration freezes page 2 and moves
   it. *)
let test_fork_ksm_migrate_windows_traced () =
  let m =
    Machine.create ~topo:(Topology.flat 2) ~opts:(Opts.all_general ~safe:true) ~seed:5L ()
  in
  Trace.enable m.Machine.trace;
  let mm = Machine.new_mm m in
  let pages = 4 in
  let addr = ref 0 and stop = ref false and merged = ref 0 and migrated = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:1 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      while not !stop do
        Access.touch_range m ~cpu:1 ~addr:!addr ~pages ~write:false;
        Cpu.compute (Machine.cpu m 1) ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"main" (fun () ->
      addr := Syscall.mmap m ~cpu:0 ~pages ();
      Access.touch_range m ~cpu:0 ~addr:!addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 2_000;
      ignore (Fork.fork m ~cpu:0 : Mm_struct.t);
      let vpn = Addr.vpn_of_addr !addr in
      (* Breaking CoW gives page 2 a private frame again, which may move. *)
      Access.write m ~cpu:0 ~vaddr:(Addr.addr_of_vpn (vpn + 2));
      merged := Ksm.dedup_range m ~cpu:0 ~mm ~vpn ~pages:2;
      migrated := Migrate.migrate_range m ~cpu:0 ~mm ~vpn:(vpn + 2) ~pages:1;
      Machine.delay m 2_000;
      stop := true);
  Kernel.run m;
  Kernel.check_run m ~who:"traced fork/ksm/migrate";
  check int_t "merged" 1 !merged;
  check int_t "migrated" 1 !migrated;
  check int_t "no record dropped" 0 (Trace.dropped m.Machine.trace);
  let starts = ref [] and dones = ref [] in
  let open_windows = Hashtbl.create 8 and writes = ref [] in
  let base = Addr.vpn_of_addr !addr in
  Trace.iter m.Machine.trace (fun r ->
      match r.Trace.event with
      | Trace.Flush_start { window; _ } ->
          starts := window :: !starts;
          Hashtbl.replace open_windows window (r.Trace.cpu, r.Trace.event)
      | Trace.Flush_done { window; _ } ->
          dones := window :: !dones;
          Hashtbl.remove open_windows window
      | Trace.Pte_write { mm_id; vpn; pages } ->
          let covers _ (cpu, w) inside =
            inside
            ||
            match w with
            | Trace.Flush_start { mm_id = id; start_vpn; span; full; _ } ->
                cpu = r.Trace.cpu && id = mm_id
                && (full || (start_vpn <= vpn && vpn + pages <= start_vpn + span))
            | _ -> false
          in
          writes := (vpn - base, Hashtbl.fold covers open_windows false) :: !writes
      | _ -> ());
  check
    Alcotest.(list (pair int bool))
    "a Pte_write per changed PTE, inside its window"
    (List.map (fun v -> (v, true)) [ 3; 2; 1; 0; 2; 0; 1; 1; 2; 2 ])
    (List.rev !writes);
  (* Checker tokens count up from 1 in the order windows open, so one more
     window's id counts every window the run opened. *)
  let c = m.Machine.checker in
  check int_t "every window closed" 0 (Checker.open_windows c);
  let probe = Checker.begin_invalidation c (Flush_info.full ~mm_id:0 ~new_tlb_gen:0 ~freed_tables:false) in
  Checker.end_invalidation c probe;
  let windows = List.init (Checker.token_id probe - 1) (fun i -> i + 1) in
  let ints = Alcotest.(list int) in
  check ints "one Flush_start per window" windows (List.sort compare !starts);
  check ints "one Flush_done per window" windows (List.sort compare !dones);
  let r = Hb.analyze_trace m.Machine.trace in
  check bool_t "stale hits occurred" true (r.Hb.stale_hits > 0);
  check int_t "no genuine race" 0 r.Hb.genuine

(* --- scenarios --- *)

let test_scenarios_deterministic () =
  let trace_of () =
    let m = Scenarios.shootdown_2cpu () in
    Trace.enable m.Machine.trace;
    Kernel.run m;
    List.map
      (fun (r : Trace.record) ->
        (r.Trace.time, r.Trace.cpu, Format.asprintf "%a" Trace.pp_event r.Trace.event))
      (records m.Machine.trace)
  in
  let a = trace_of () and b = trace_of () in
  check bool_t "nonempty" true (a <> []);
  check bool_t "identical replays" true (a = b)

(* --- interleaving explorer --- *)

let quick_config =
  {
    Explorer.max_choice_points = 12;
    max_branch = 2;
    max_runs = 32;
    horizon = 30;
    trace_cap = 20_000;
  }

(* The ISSUE's exhaustive-small gate: a 2-CPU single-page shootdown under
   every combination of the paper's six general optimizations (64 opt
   combinations, interleavings explored for each), asserting that every
   invariant holds and the analyzer proves every stale hit in-flight. *)
let test_explore_all_flag_combos () =
  let n = List.length Opts.techniques in
  let masks = List.init (1 lsl n) Fun.id in
  (* The 64 combos shard across domains via explore_set; results come back
     in mask order, so the assertions below see exactly the sequential
     sweep's view. *)
  let results =
    Explorer.explore_set ~config:quick_config ~jobs:2
      (List.map
         (fun mask ->
           let opts = ref (Opts.baseline ~safe:true) in
           List.iteri
             (fun i sw -> opts := sw.Opts.set !opts (mask land (1 lsl i) <> 0))
             Opts.techniques;
           let opts = !opts in
           fun () -> Scenarios.shootdown_2cpu ~opts ())
         masks)
  in
  let total_hits = ref 0 and total_proved = ref 0 and total_runs = ref 0 in
  List.iter2
    (fun mask r ->
      let label = Printf.sprintf "mask %d" mask in
      if r.Explorer.failures <> [] then
        Alcotest.failf "%s: %s" label
          (String.concat "; "
             (List.map (fun f -> f.Explorer.fail_what) r.Explorer.failures));
      check int_t (label ^ ": no genuine race") 0 r.Explorer.genuine;
      (* §4.2 batching combos may leave unordered-latent hits: a batched CPU
         is skipped by IPI targeting and synchronizes at the mmap_sem-release
         barrier, which contributes no happens-before edge — the checker's
         wall-clock window excuses those hits, the vector clocks cannot. *)
      if not (mask land 32 <> 0) then
        check int_t (label ^ ": no unordered hit") 0 r.Explorer.unordered_latent;
      total_hits := !total_hits + r.Explorer.stale_hits;
      total_proved := !total_proved + r.Explorer.proved_in_flight + r.Explorer.unordered_latent;
      total_runs := !total_runs + r.Explorer.runs)
    masks results;
  check bool_t "explored many runs" true (!total_runs >= 64);
  check bool_t "races exercised" true (!total_hits > 0);
  check int_t "every hit proved or latent, none genuine" !total_hits !total_proved

(* The cross-backend sweep's testable core: the same 2-CPU shootdown
   explored under each alternative protocol backend must violate no
   invariant and expose no genuine race. Sync-broadcast and queue-spin
   synchronize responders through mechanisms the vector clocks do not
   model as edges (posted descriptors, ring generations), so their stale
   hits may classify unordered-latent — the checker's wall-clock window
   excuses them — but never genuine. *)
let test_explore_alternative_backends () =
  let protocols = [ Opts.Oracle; Opts.Sync_broadcast; Opts.Queue_spin ] in
  let results =
    Explorer.explore_set ~config:quick_config ~jobs:2
      (List.map
         (fun p ->
           let opts = Opts.with_protocol p ~safe:true in
           fun () -> Scenarios.shootdown_2cpu ~opts ())
         protocols)
  in
  List.iter2
    (fun p r ->
      let label = Opts.protocol_label p in
      if r.Explorer.failures <> [] then
        Alcotest.failf "%s: %s" label
          (String.concat "; "
             (List.map (fun f -> f.Explorer.fail_what) r.Explorer.failures));
      check int_t (label ^ ": no genuine race") 0 r.Explorer.genuine;
      check bool_t (label ^ ": explored several runs") true (r.Explorer.runs > 1))
    protocols results

let test_explore_branches_reach_new_interleavings () =
  let r =
    match
      Explorer.explore_set ~config:{ quick_config with Explorer.max_runs = 8 } ~jobs:1
        [ (fun () -> Scenarios.shootdown_2cpu ()) ]
    with
    | [ r ] -> r
    | _ -> assert false
  in
  check bool_t "several runs" true (r.Explorer.runs > 1);
  check bool_t "found decision points" true (r.Explorer.max_depth > 0);
  check int_t "clean" 0 (List.length r.Explorer.failures)

let test_explore_catches_injected_bug () =
  let opts =
    { (Opts.all_general ~safe:true) with Opts.fault = Some Opts.Skip_deferred_flush }
  in
  let r =
    match
      Explorer.explore_set ~config:{ quick_config with Explorer.max_runs = 4 } ~jobs:1
        [ (fun () -> Scenarios.shootdown_2cpu ~opts ()) ]
    with
    | [ r ] -> r
    | _ -> assert false
  in
  check bool_t "bug detected" true (r.Explorer.failures <> [])

let suite =
  [
    Alcotest.test_case "hb: empty trace" `Quick test_hb_empty;
    Alcotest.test_case "hb: program order is genuine" `Quick test_hb_program_order_is_genuine;
    Alcotest.test_case "hb: hit before close in-flight" `Quick
      test_hb_hit_before_close_is_in_flight;
    Alcotest.test_case "hb: unsynchronized close proves nothing" `Quick
      test_hb_unsynchronized_close_proves_nothing;
    Alcotest.test_case "hb: unclosed window in-flight" `Quick
      test_hb_unclosed_window_is_in_flight;
    Alcotest.test_case "hb: return-to-user expires excuse" `Quick
      test_hb_return_to_user_expires_excuse;
    Alcotest.test_case "hb: demo races proved benign" `Quick test_demo_races_proved_benign;
    Alcotest.test_case "hb: injected bug flagged" `Quick test_injected_bug_is_flagged_genuine;
    Alcotest.test_case "hb: LATR strawman flagged" `Quick test_latr_strawman_flagged_genuine;
    Alcotest.test_case "scenarios: deterministic replay" `Quick test_scenarios_deterministic;
    Alcotest.test_case "explorer: all 64 opt combos" `Slow test_explore_all_flag_combos;
    Alcotest.test_case "explorer: alternative protocol backends" `Quick
      test_explore_alternative_backends;
    Alcotest.test_case "explorer: branching works" `Quick
      test_explore_branches_reach_new_interleavings;
    Alcotest.test_case "explorer: catches injected bug" `Quick test_explore_catches_injected_bug;
    Alcotest.test_case "hb: fork, KSM and migrate windows traced" `Quick
      test_fork_ksm_migrate_windows_traced;
  ]
