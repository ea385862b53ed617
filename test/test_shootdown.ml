(* Protocol-level tests for Shootdown: baseline ordering, concurrent
   flushes, early ack (and its freed-tables exception), cacheline
   consolidation, in-context flushing, generation tracking, lazy-TLB
   skipping and userspace-safe batching. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.baseline ~safe:true) () = Machine.create ~opts ~seed:3L ()

(* Safe-mode baseline with paper knobs changed by [f]. *)
let paper f = Opts.map_paper f (Opts.baseline ~safe:true)

(* Map [pages] anonymous pages into [mm] and return the base vpn; PTEs are
   created eagerly so flushes have something to flush. *)
let map_pages m mm ~pages =
  let start_vpn = Mm_struct.alloc_va_range mm ~pages () in
  Mm_struct.add_vma mm (Vma.make ~start_vpn ~pages ());
  let pt = Mm_struct.page_table mm in
  for i = 0 to pages - 1 do
    Page_table.map pt ~vpn:(start_vpn + i) ~size:Tlb.Four_k
      (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames))
  done;
  start_vpn

(* Touch pages from user context so the TLB holds their translations. *)
let warm m ~cpu ~start_vpn ~pages =
  Access.touch_range m ~cpu ~addr:(Addr.addr_of_vpn start_vpn) ~pages ~write:false

let user_pcid_of m cpu =
  let pcpu = Machine.percpu m cpu in
  if m.Machine.opts.Opts.safe then Percpu.user_pcid pcpu.Percpu.curr_asid
  else Percpu.kernel_pcid pcpu.Percpu.curr_asid

let tlb_of m cpu = Cpu.tlb (Machine.cpu m cpu)

(* Run [body] as a user thread on cpu 0 with a busy responder on
   [responder]; returns after the machine quiesces. *)
let with_pair ?opts ~responder body =
  let m = make ?opts () in
  let mm = Machine.new_mm m in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:responder ~mm ~name:"responder" (fun () ->
      let cpu_t = Machine.cpu m responder in
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

let test_local_only_no_ipi () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:2 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:2;
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:2 ~stride:Tlb.Four_k ~freed_tables:false;
      check bool_t "entry flushed" false
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn));
  Kernel.run m;
  check int_t "no shootdowns" 0 m.Machine.stats.Machine.shootdowns;
  check int_t "local-only counted" 1 m.Machine.stats.Machine.local_only_flushes;
  check int_t "no IPIs" 0 (Apic.ipis_sent m.Machine.apic)

let test_shootdown_flushes_remote () =
  let remote_had = ref false and remote_gone = ref false in
  let vpn_box = ref 0 in
  let m =
    with_pair ~responder:14 (fun m mm ->
        let vpn = map_pages m mm ~pages:1 in
        vpn_box := vpn;
        (* Let the responder cache the translation too. *)
        warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
        Tlb.insert (tlb_of m 14)
          {
            Tlb.vpn;
            pfn = 0;
            pcid = user_pcid_of m 14;
            size = Tlb.Four_k;
            global = false;
            writable = true;
            fractured = false;
              ck_ver = -1;
          };
        remote_had := Tlb.mem (tlb_of m 14) ~pcid:(user_pcid_of m 14) ~vpn;
        Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
        (* The kernel part of the remote flush is synchronous with the ack
           under the baseline (no early ack). The user PCID entry must be
           gone before the responder returns to user mode, which has
           happened by quiescence. *)
        Machine.delay m 10_000;
        remote_gone := not (Tlb.mem (tlb_of m 14) ~pcid:(user_pcid_of m 14) ~vpn))
  in
  check bool_t "remote cached it" true !remote_had;
  check bool_t "remote flushed" true !remote_gone;
  check int_t "one shootdown" 1 m.Machine.stats.Machine.shootdowns;
  check int_t "one IPI" 1 (Apic.ipis_sent m.Machine.apic)

(* Deterministic latency comparison across two option sets. *)
let measure_flush ~opts ~pages ~responder =
  let cycles = ref 0 in
  let _m =
    with_pair ~opts ~responder (fun m mm ->
        let vpn = map_pages m mm ~pages in
        warm m ~cpu:0 ~start_vpn:vpn ~pages;
        let t0 = Machine.now m in
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages ~stride:Tlb.Four_k ~freed_tables:false;
        cycles := Machine.now m - t0)
  in
  !cycles

let test_concurrent_faster_than_baseline () =
  let baseline = measure_flush ~opts:(Opts.baseline ~safe:true) ~pages:10 ~responder:14 in
  let opts = paper (fun p -> { p with Opts.concurrent_flush = true }) in
  let concurrent = measure_flush ~opts ~pages:10 ~responder:14 in
  check bool_t
    (Printf.sprintf "concurrent (%d) < baseline (%d)" concurrent baseline)
    true (concurrent < baseline)

let test_early_ack_faster_still () =
  let opts1 = paper (fun p -> { p with Opts.concurrent_flush = true }) in
  let concurrent = measure_flush ~opts:opts1 ~pages:10 ~responder:14 in
  let opts2 = Opts.map_paper (fun p -> { p with Opts.early_ack = true }) opts1 in
  let early = measure_flush ~opts:opts2 ~pages:10 ~responder:14 in
  check bool_t
    (Printf.sprintf "early-ack (%d) < concurrent-only (%d)" early concurrent)
    true (early < concurrent)

let test_all4_faster_than_baseline_1pte () =
  let baseline = measure_flush ~opts:(Opts.baseline ~safe:true) ~pages:1 ~responder:14 in
  let all = measure_flush ~opts:(Opts.all_general ~safe:true) ~pages:1 ~responder:14 in
  check bool_t "all4 wins even at 1 PTE" true (all < baseline)

let measure_flush_freed ~opts =
  let cycles = ref 0 in
  let _m =
    with_pair ~opts ~responder:14 (fun m mm ->
        let vpn = map_pages m mm ~pages:4 in
        warm m ~cpu:0 ~start_vpn:vpn ~pages:4;
        let t0 = Machine.now m in
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:4
          ~freed_tables:true ~stride:Tlb.Four_k;
        cycles := Machine.now m - t0)
  in
  !cycles

let test_early_ack_disabled_when_tables_freed () =
  (* With freed page tables the responder must not ack before flushing;
     the early-ack flag must therefore make no difference at all. *)
  let opts_no = paper (fun p -> { p with Opts.concurrent_flush = true }) in
  let opts_yes = Opts.map_paper (fun p -> { p with Opts.early_ack = true }) opts_no in
  let without = measure_flush_freed ~opts:opts_no in
  let with_ea = measure_flush_freed ~opts:opts_yes in
  check int_t "identical cycle count" without with_ea

let test_cacheline_consolidation_reduces_transfers () =
  let transfers ~opts =
    let result = ref 0 in
    let _m =
      with_pair ~opts ~responder:14 (fun m mm ->
          let vpn = map_pages m mm ~pages:1 in
          warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
          let transfers () =
            let t = Cache.totals m.Machine.registry in
            t.Cache.smt_transfers + t.Cache.same_socket_transfers
            + t.Cache.cross_socket_transfers
          in
          let before = transfers () in
          Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
          Machine.delay m 10_000;
          result := transfers () - before)
    in
    !result
  in
  let base_opts = Opts.baseline ~safe:true in
  let cons_opts = paper (fun p -> { p with Opts.cacheline_consolidation = true }) in
  let base = transfers ~opts:base_opts in
  let cons = transfers ~opts:cons_opts in
  check bool_t (Printf.sprintf "consolidated (%d) < baseline (%d)" cons base) true
    (cons < base)

let test_full_flush_over_threshold () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:40 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:40;
      (* Also warm an address outside the flush range. *)
      let other = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:other ~pages:1;
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:40 ~stride:Tlb.Four_k ~freed_tables:false;
      (* 40 > 33: everything in the kernel PCID went, and the user PCID
         full flush is pending (safe mode defers it). *)
      check bool_t "outside range flushed too (pending user full)" true
        (match (Machine.percpu m 0).Percpu.pending_user with
        | Percpu.Full_flush -> true
        | Percpu.Ranged _ | Percpu.No_flush -> false);
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true;
      check bool_t "user entry outside range gone" false
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn:other));
  Kernel.run m

(* The responder flush as the paper backend's IPI handler runs it. *)
let flush_tlb_func m ~cpu info =
  Flush_core.flush_tlb_func_impl m ~cpu ~user:(Flush_core.default_user_policy m info) info

let test_responder_gen_skip () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      let gen = Mm_struct.bump_tlb_gen mm in
      let info = Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:vpn ~pages:1 ~new_tlb_gen:gen ~stride:Tlb.Four_k ~freed_tables:false in
      check bool_t "first executes" true (flush_tlb_func m ~cpu:0 info = `Ranged);
      check bool_t "second skips" true (flush_tlb_func m ~cpu:0 info = `Skipped));
  Kernel.run m;
  check int_t "skip counted" 1 m.Machine.stats.Machine.flush_requests_skipped

let test_responder_gen_fast_forward_full () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      (* Fall several generations behind, then serve an old request. *)
      let g1 = Mm_struct.bump_tlb_gen mm in
      let _g2 = Mm_struct.bump_tlb_gen mm in
      let g3 = Mm_struct.bump_tlb_gen mm in
      let old_info =
        Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:vpn ~pages:1 ~new_tlb_gen:g3 ~stride:Tlb.Four_k ~freed_tables:false
      in
      ignore g1;
      check bool_t "multiple gens behind takes a full flush" true
        (flush_tlb_func m ~cpu:0 old_info = `Full);
      (* Fast-forwarded: a request for an intermediate gen now skips. *)
      let mid_info =
        Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:vpn ~pages:1 ~new_tlb_gen:g3 ~stride:Tlb.Four_k ~freed_tables:false
      in
      check bool_t "subsequent skipped" true
        (flush_tlb_func m ~cpu:0 mid_info = `Skipped));
  Kernel.run m;
  check int_t "fallback counted" 1 m.Machine.stats.Machine.full_flush_fallbacks

let test_lazy_cpu_skipped_and_syncs () =
  let m = make () in
  let mm = Machine.new_mm m in
  let phase2 = Waitq.Completion.create m.Machine.engine in
  let vpn_box = ref 0 in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"lazy-side" (fun () ->
      (* Cache a translation, then go lazy (kernel thread takes over). *)
      Waitq.Completion.wait phase2;
      (* After the initiator's flush: we were skipped, entry is stale but
         we are in lazy mode and must sync on exit. *)
      Sched.exit_lazy m ~cpu:14;
      check bool_t "synced on lazy exit" false
        (Tlb.mem (tlb_of m 14) ~pcid:(user_pcid_of m 14) ~vpn:!vpn_box));
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 1_000;
      let vpn = map_pages m mm ~pages:1 in
      vpn_box := vpn;
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      Tlb.insert (tlb_of m 14)
        {
          Tlb.vpn;
          pfn = 0;
          pcid = user_pcid_of m 14;
          size = Tlb.Four_k;
          global = false;
          writable = true;
          fractured = false;
              ck_ver = -1;
        };
      Sched.enter_lazy m ~cpu:14;
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      check int_t "no IPI sent" 0 (Apic.ipis_sent m.Machine.apic);
      check int_t "lazy skip counted" 1 m.Machine.stats.Machine.ipis_skipped_lazy;
      Waitq.Completion.fire phase2);
  Kernel.run m

let test_in_context_defers_user_flush () =
  let opts = { (Opts.baseline ~safe:true) with Opts.in_context_flush = true } in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:2 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:2;
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:2 ~stride:Tlb.Four_k ~freed_tables:false;
      (* Kernel PCID flushed eagerly; user PCID deferred. *)
      check bool_t "user entry still cached" true
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn);
      (match (Machine.percpu m 0).Percpu.pending_user with
      | Percpu.Ranged info -> check int_t "pending range" 2 info.Flush_info.pages
      | Percpu.Full_flush | Percpu.No_flush -> Alcotest.fail "expected deferred range");
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true;
      check bool_t "flushed at kernel exit" false
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn));
  Kernel.run m;
  check bool_t "deferral counted" true (m.Machine.stats.Machine.in_context_deferrals >= 1)

let test_in_context_no_stack_full_flush () =
  let opts = { (Opts.baseline ~safe:true) with Opts.in_context_flush = true } in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:2 in
      let other = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:2;
      warm m ~cpu:0 ~start_vpn:other ~pages:1;
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:2 ~stride:Tlb.Four_k ~freed_tables:false;
      (* Returning without a stack (IRET path): the whole user PCID goes. *)
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:false;
      check bool_t "unrelated user entry also gone" false
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn:other));
  Kernel.run m

let test_in_context_eager_when_tables_freed () =
  let opts = { (Opts.baseline ~safe:true) with Opts.in_context_flush = true } in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:2 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:2;
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:2
        ~freed_tables:true ~stride:Tlb.Four_k;
      check bool_t "user entry flushed eagerly" false
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn);
      check bool_t "nothing pending" true
        ((Machine.percpu m 0).Percpu.pending_user = Percpu.No_flush));
  Kernel.run m

let test_batching_defers_and_flushes_at_release () =
  let opts = paper (fun p -> { p with Opts.userspace_batching = true }) in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:4 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:4;
      let pcpu = Machine.percpu m 0 in
      pcpu.Percpu.batched_mode <- true;
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn:(vpn + 1);
      check int_t "two deferred" 2 (List.length pcpu.Percpu.batch);
      check bool_t "nothing flushed yet" true
        (Tlb.mem (tlb_of m 0) ~pcid:(Percpu.kernel_pcid pcpu.Percpu.curr_asid) ~vpn
        || Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn);
      Shootdown.flush_batched m ~from:0 ~mm;
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true;
      check bool_t "flushed at release" false
        (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn);
      check bool_t "batch drained" true (pcpu.Percpu.batch = []);
      check bool_t "batched mode off" false pcpu.Percpu.batched_mode);
  Kernel.run m;
  check int_t "deferrals counted" 2 m.Machine.stats.Machine.batched_deferrals

let test_batching_overflow_merges () =
  let opts = paper (fun p -> { p with Opts.userspace_batching = true; batch_slots = 2 }) in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:6 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:6;
      let pcpu = Machine.percpu m 0 in
      pcpu.Percpu.batched_mode <- true;
      for i = 0 to 4 do
        Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn:(vpn + i)
      done;
      check bool_t "capped at 2 slots" true (List.length pcpu.Percpu.batch <= 2);
      check bool_t "overflow flagged" true pcpu.Percpu.batch_overflowed;
      (* Overflow flushed the oldest entries eagerly. *)
      check bool_t "early pages already flushed" false
        (Tlb.mem (tlb_of m 0) ~pcid:(Percpu.kernel_pcid pcpu.Percpu.curr_asid) ~vpn);
      Shootdown.flush_batched m ~from:0 ~mm;
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true;
      (* Every page must still end up flushed (merged ranges). *)
      for i = 0 to 4 do
        check bool_t
          (Printf.sprintf "page %d flushed" i)
          false
          (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn:(vpn + i))
      done);
  Kernel.run m

let test_batched_target_skipped () =
  let opts = paper (fun p -> { p with Opts.userspace_batching = true }) in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  let phase2 = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"batched-side" (fun () ->
      let pcpu = Machine.percpu m 14 in
      pcpu.Percpu.batched_mode <- true;
      Waitq.Completion.wait phase2;
      (* The §4.2 exit barrier. *)
      pcpu.Percpu.batched_mode <- false;
      Shootdown.check_and_sync_tlb m ~cpu:14;
      check bool_t "synced via barrier" false
        (Tlb.mem (tlb_of m 14) ~pcid:(Percpu.kernel_pcid pcpu.Percpu.curr_asid) ~vpn:1));
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 1_000;
      let vpn = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      check int_t "no IPI to batched target" 0 (Apic.ipis_sent m.Machine.apic);
      check int_t "skip counted" 1 m.Machine.stats.Machine.ipis_skipped_batched;
      Waitq.Completion.fire phase2);
  Kernel.run m

let test_batched_target_not_skipped_for_freed_tables () =
  let opts = paper (fun p -> { p with Opts.userspace_batching = true }) in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"batched-side" (fun () ->
      (Machine.percpu m 14).Percpu.batched_mode <- true;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 1_000;
      let vpn = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:1
        ~freed_tables:true ~stride:Tlb.Four_k;
      check int_t "IPI still sent when tables freed" 1 (Apic.ipis_sent m.Machine.apic);
      stop := true);
  Kernel.run m

let test_concurrent_in_context_interplay () =
  let opts = Opts.all_general ~safe:true in
  let deferred = ref false in
  let _m =
    with_pair ~opts ~responder:14 (fun m mm ->
        let vpn = map_pages m mm ~pages:10 in
        warm m ~cpu:0 ~start_vpn:vpn ~pages:10;
        Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn:vpn ~pages:10 ~stride:Tlb.Four_k ~freed_tables:false;
        (* With 10 user PTEs and a same/cross-socket ack latency the
           initiator cannot INVPCID them all before the first ack: a
           remainder must be deferred. *)
        deferred :=
          (match (Machine.percpu m 0).Percpu.pending_user with
          | Percpu.Ranged _ | Percpu.Full_flush -> true
          | Percpu.No_flush -> false);
        Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true)
  in
  check bool_t "remainder deferred after first ack" true !deferred

let test_flush_tlb_mm_full () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"solo" (fun () ->
      let vpn = map_pages m mm ~pages:3 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:3;
      Shootdown.flush_tlb_mm m ~from:0 ~mm;
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true;
      for i = 0 to 2 do
        check bool_t "gone" false
          (Tlb.mem (tlb_of m 0) ~pcid:(user_pcid_of m 0) ~vpn:(vpn + i))
      done);
  Kernel.run m

let test_multiple_responders_all_flushed () =
  let m = make ~opts:(Opts.all_general ~safe:true) () in
  let mm = Machine.new_mm m in
  let responders = [ 1; 2; 14; 15 ] in
  let stop = ref false in
  List.iter
    (fun cpu ->
      Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "resp%d" cpu) (fun () ->
          let cpu_t = Machine.cpu m cpu in
          while not !stop do
            Cpu.compute cpu_t ~quantum:100 100
          done))
    responders;
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 2_000;
      let vpn = map_pages m mm ~pages:1 in
      warm m ~cpu:0 ~start_vpn:vpn ~pages:1;
      List.iter
        (fun cpu ->
          Tlb.insert (tlb_of m cpu)
            {
              Tlb.vpn;
              pfn = 0;
              pcid = user_pcid_of m cpu;
              size = Tlb.Four_k;
              global = false;
              writable = true;
              fractured = false;
              ck_ver = -1;
            })
        responders;
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn;
      Machine.delay m 20_000;
      List.iter
        (fun cpu ->
          check bool_t
            (Printf.sprintf "cpu%d flushed" cpu)
            false
            (Tlb.mem (tlb_of m cpu) ~pcid:(user_pcid_of m cpu) ~vpn))
        responders;
      check int_t "four IPIs" 4 (Apic.ipis_sent m.Machine.apic);
      stop := true);
  Kernel.run m

(* The §4.1 CoW round is the paper round with the local flush elided, so
   under the FreeBSD comparator it takes [ipi_mutex] like every other
   paper shootdown: with the mm loaded on a second, idle CPU it costs
   exactly one uncontended lock more than without [serialized]. *)
let cow_round_cycles ~serialized =
  let opts = paper (fun p -> { p with Opts.cow_avoid_flush = true; serialized }) in
  let m = Machine.create ~topo:(Topology.flat 4) ~opts ~seed:3L () in
  let mm = Machine.new_mm m in
  let cycles = ref 0 in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      let vpn = map_pages m mm ~pages:1 in
      Sched.switch_mm m ~cpu:1 mm;
      let t0 = Machine.now m in
      Shootdown.flush_tlb_page_cow m ~from:0 ~mm ~vpn ~executable:false;
      cycles := Machine.now m - t0);
  Kernel.run m;
  check int_t "local flush elided" 1 m.Machine.stats.Machine.cow_flush_avoided;
  check int_t "one shootdown" 1 m.Machine.stats.Machine.shootdowns;
  (!cycles, m.Machine.costs.Costs.lock_uncontended)

let test_cow_round_takes_ipi_mutex () =
  let plain, _ = cow_round_cycles ~serialized:false in
  let serialized, lock = cow_round_cycles ~serialized:true in
  check int_t "serialized adds one uncontended lock" (plain + lock) serialized

let suite =
  [
    Alcotest.test_case "local-only: no IPI" `Quick test_local_only_no_ipi;
    Alcotest.test_case "shootdown flushes remote TLB" `Quick test_shootdown_flushes_remote;
    Alcotest.test_case "concurrent < baseline" `Quick test_concurrent_faster_than_baseline;
    Alcotest.test_case "early ack < concurrent" `Quick test_early_ack_faster_still;
    Alcotest.test_case "all4 < baseline at 1 PTE" `Quick test_all4_faster_than_baseline_1pte;
    Alcotest.test_case "early ack off when tables freed" `Quick test_early_ack_disabled_when_tables_freed;
    Alcotest.test_case "cacheline consolidation reduces transfers" `Quick test_cacheline_consolidation_reduces_transfers;
    Alcotest.test_case "over-threshold becomes full flush" `Quick test_full_flush_over_threshold;
    Alcotest.test_case "responder skips seen generations" `Quick test_responder_gen_skip;
    Alcotest.test_case "gen gap fast-forwards via full flush" `Quick test_responder_gen_fast_forward_full;
    Alcotest.test_case "lazy CPU skipped, syncs on exit" `Quick test_lazy_cpu_skipped_and_syncs;
    Alcotest.test_case "in-context defers user flush" `Quick test_in_context_defers_user_flush;
    Alcotest.test_case "in-context: no stack -> full" `Quick test_in_context_no_stack_full_flush;
    Alcotest.test_case "in-context eager on freed tables" `Quick test_in_context_eager_when_tables_freed;
    Alcotest.test_case "batching defers, flushes at release" `Quick test_batching_defers_and_flushes_at_release;
    Alcotest.test_case "batching overflow merges" `Quick test_batching_overflow_merges;
    Alcotest.test_case "batched target skipped" `Quick test_batched_target_skipped;
    Alcotest.test_case "freed tables: batched target still IPI'd" `Quick test_batched_target_not_skipped_for_freed_tables;
    Alcotest.test_case "concurrent+in-context interplay" `Quick test_concurrent_in_context_interplay;
    Alcotest.test_case "flush_tlb_mm full" `Quick test_flush_tlb_mm_full;
    Alcotest.test_case "multiple responders all flushed" `Quick test_multiple_responders_all_flushed;
    Alcotest.test_case "cow round takes ipi_mutex when serialized" `Quick
      test_cow_round_takes_ipi_mutex;
  ]
