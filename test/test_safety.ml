(* The paper's correctness argument, encoded as tests: every supported
   optimization stack keeps TLB coherence (checker-clean), while the
   LATR-style aggressive lazy batching strawman does not (§2.3.2). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* One writer madvises pages away while a reader on another socket keeps
   reading them; the reader's accesses are checked against the page table
   on every TLB hit. *)
let churn ~opts ~rounds =
  let m = Machine.create ~opts ~seed:5L () in
  let mm = Machine.new_mm m in
  let stop = ref false in
  let reader_cpu = 14 in
  let pages = 4 in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:reader_cpu ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m reader_cpu in
      while not !stop do
        (* Read whatever is there; pages may vanish under us, which must
           surface as page faults, never as stale reads. *)
        (try Access.touch_range m ~cpu:reader_cpu ~addr:!addr_box ~pages ~write:false
         with Fault.Segfault _ -> ());
        Cpu.compute cpu_t ~quantum:100 300
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"writer" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      for _ = 1 to rounds do
        Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages;
        Access.touch_range m ~cpu:0 ~addr ~pages ~write:true
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  m

let test_baseline_protocol_is_safe () =
  let m = churn ~opts:(Opts.baseline ~safe:true) ~rounds:40 in
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker);
  check bool_t "races did happen (test is meaningful)" true
    (Checker.benign_races m.Machine.checker > 0
    || Checker.checks m.Machine.checker > 0)

let test_all_optimizations_safe_in_safe_mode () =
  let m = churn ~opts:(Opts.all ~safe:true) ~rounds:40 in
  check int_t "no violations with all 6 optimizations" 0
    (Checker.violation_count m.Machine.checker)

let test_all_optimizations_safe_in_unsafe_mode () =
  let m = churn ~opts:(Opts.all ~safe:false) ~rounds:40 in
  check int_t "no violations (unsafe mode = no PTI, still coherent)" 0
    (Checker.violation_count m.Machine.checker)

let test_each_single_optimization_safe () =
  List.iter
    (fun sw ->
      let opts = sw.Opts.set (Opts.baseline ~safe:true) true in
      let m = churn ~opts ~rounds:25 in
      check int_t "no violations" 0 (Checker.violation_count m.Machine.checker))
    Opts.techniques

let test_lazy_batching_strawman_violates () =
  (* The point of §2.3.2: skipping the IPIs entirely and pretending the
     flush completed lets remote CPUs read through stale translations of
     recycled frames. The checker must catch it. *)
  let opts = { (Opts.baseline ~safe:true) with Opts.fault = Some Opts.Lazy_strawman } in
  let m = churn ~opts ~rounds:40 in
  check bool_t "violations detected" true (Checker.violation_count m.Machine.checker > 0);
  match Checker.violations m.Machine.checker with
  | v :: _ -> check int_t "on the remote cpu" 14 v.Checker.v_cpu
  | [] -> Alcotest.fail "expected recorded violations"

let test_no_open_windows_after_quiescence () =
  let m = churn ~opts:(Opts.all ~safe:true) ~rounds:10 in
  check int_t "all invalidation windows closed" 0
    (Checker.open_windows m.Machine.checker)

(* A CoW-specific safety scenario: two threads share a private mapping
   after a simulated fork; one writes (breaking CoW with a remote
   shootdown), the other keeps reading. *)
let test_cow_shootdown_remote_safety () =
  let opts = { (Opts.all ~safe:true) with Opts.spec_pte_recache_p = 1.0 } in
  let m = Machine.create ~opts ~seed:7L () in
  let mm = Machine.new_mm m in
  let pages = 8 in
  let file = File.create m.Machine.frames ~name:"shared" ~size_pages:pages in
  for index = 0 to pages - 1 do
    ignore (File.frame_of_page file ~index)
  done;
  let stop = ref false in
  let ready = Waitq.Completion.create m.Machine.engine in
  let addr_box = ref 0 in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false;
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"writer" (fun () ->
      let addr =
        Syscall.mmap m ~cpu:0 ~pages ~backing:(Vma.File_private { file; offset = 0 }) ()
      in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:false;
      Waitq.Completion.fire ready;
      Machine.delay m 3_000;
      for i = 0 to pages - 1 do
        Access.write m ~cpu:0 ~vaddr:(addr + (i * Addr.page_size))
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check int_t "cow with remote reader is safe" 0
    (Checker.violation_count m.Machine.checker);
  check bool_t "cow flushes were avoided" true
    (m.Machine.stats.Machine.cow_flush_avoided > 0)

let suite =
  [
    Alcotest.test_case "baseline protocol safe" `Quick test_baseline_protocol_is_safe;
    Alcotest.test_case "all optimizations safe (safe mode)" `Quick test_all_optimizations_safe_in_safe_mode;
    Alcotest.test_case "all optimizations safe (unsafe mode)" `Quick test_all_optimizations_safe_in_unsafe_mode;
    Alcotest.test_case "each optimization individually safe" `Slow test_each_single_optimization_safe;
    Alcotest.test_case "lazy-batching strawman violates" `Quick test_lazy_batching_strawman_violates;
    Alcotest.test_case "no open windows at quiescence" `Quick test_no_open_windows_after_quiescence;
    Alcotest.test_case "cow + remote reader safe" `Quick test_cow_shootdown_remote_safety;
  ]
