(* Focused coverage for behaviours not exercised elsewhere: trace content
   of a real shootdown, Smp mechanism details,
   hugepage/batching interplay, and API misuse errors. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.baseline ~safe:true) () = Machine.create ~opts ~seed:91L ()

let test_opts_pp_lists_enabled () =
  let o = Opts.all ~safe:true in
  let s = Format.asprintf "%a" Opts.pp o in
  check bool_t "mentions mode" true (String.length s > 0 && String.sub s 0 4 = "safe");
  List.iter
    (fun needle ->
      let contains =
        let n = String.length needle and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      check bool_t (needle ^ " listed") true contains)
    [ "concurrent"; "early-ack"; "cacheline"; "in-context"; "cow"; "batching" ]

let test_engine_events_run_counter () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Helpers.schedule e ~delay:1 (fun () -> ())
  done;
  Engine.run e;
  check int_t "five events" 5 (Engine.events_run e)

let test_trace_of_real_shootdown_mentions_protocol () =
  let m = make ~opts:(Opts.all_general ~safe:true) () in
  Trace.enable m.Machine.trace;
  let mm = Machine.new_mm m in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:1 ~mm ~name:"resp" (fun () ->
      let cpu_t = Machine.cpu m 1 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"init" (fun () ->
      Machine.delay m 1_000;
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:2;
      Machine.delay m 10_000;
      stop := true);
  Kernel.run m;
  let events =
    let acc = ref [] in
    Trace.iter m.Machine.trace (fun r ->
        acc := Format.asprintf "%a" Trace.pp_event r.Trace.event :: !acc);
    List.rev !acc
  in
  let has prefix =
    List.exists
      (fun e ->
        String.length e >= String.length prefix
        && String.sub e 0 (String.length prefix) = prefix)
      events
  in
  check bool_t "IPI traced" true (has "IPI ->");
  check bool_t "early ack traced" true (has "early ack");
  check bool_t "completion traced" true (has "shootdown complete")

let test_smp_ack_idempotent () =
  let m = make () in
  let mm = Machine.new_mm m in
  Process.spawn m.Machine.engine ~name:"t" (fun () ->
      Sched.switch_mm m ~cpu:0 mm;
      Sched.switch_mm m ~cpu:1 mm;
      let info =
        Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:0 ~pages:1 ~new_tlb_gen:2 ()
      in
      let targets = Cpuset.create ~bits:2 in
      Cpuset.set targets 1;
      match Smp.enqueue_work m ~from:0 ~targets ~info ~early_ack:false with
      | [| cfd |] ->
          Machine.delay m (Smp.ack_write m ~me:1 cfd);
          Smp.ack_landed m ~me:1 cfd;
          check int_t "a second ack writes nothing" 0 (Smp.ack_write m ~me:1 cfd);
          check bool_t "acked" true cfd.Percpu.cfd_acked;
          (* Drain the queued work so the machine quiesces cleanly. *)
          let lead, visit =
            Smp.drain_queue m ~work:(fun cfd _ ->
                cfd.Percpu.cfd_executed <- true;
                -1)
          in
          Machine.chain_item m ~lead:(lead 1) 1 visit
      | _ -> Alcotest.fail "expected one cfd");
  Kernel.run m;
  Smp.csd_quiescent m ~cpu:1 Alcotest.fail

let test_microbench_responder_cpus () =
  let topo = Topology.paper_machine in
  check int_t "same core = SMT sibling" 28
    (Microbench.responder_cpu topo Microbench.Same_core);
  check int_t "same socket" 1 (Microbench.responder_cpu topo Microbench.Same_socket);
  check int_t "cross socket" 14 (Microbench.responder_cpu topo Microbench.Cross_socket)

let test_hugepage_with_batching_safe () =
  (* Hugepage madvise inside batched mode: the 2M-stride info defers and
     flushes at the barrier without losing coverage. *)
  let m = make ~opts:(Opts.all ~safe:true) () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:512 ~page_size:Tlb.Two_m () in
      Access.write m ~cpu:0 ~vaddr:addr;
      Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:512;
      (* Refault proves the old translation cannot linger. *)
      Access.write m ~cpu:0 ~vaddr:(addr + (17 * Addr.page_size)));
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_fork_requires_loaded_mm () =
  let m = make () in
  Process.spawn m.Machine.engine ~name:"t" (fun () ->
      Alcotest.check_raises "no mm" (Invalid_argument "Fork.fork: no address space loaded")
        (fun () -> ignore (Fork.fork m ~cpu:0)));
  Kernel.run m

let test_ksm_merge_same_frame_skipped () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      let keep = Addr.vpn_of_addr addr in
      check int_t "first merge" 1 (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:keep ~pages:2);
      (* Merging again: already sharing one frame. *)
      check int_t "second merge skipped" 0
        (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:keep ~pages:2));
  Kernel.run m

let test_vma_file_page_mapping () =
  let frames = Frame_alloc.create ~frames:1024 in
  let f = File.create frames ~name:"x" ~size_pages:10 in
  let vma =
    Vma.make ~start_vpn:100 ~pages:4 ~backing:(Vma.File_shared { file = f; offset = 3 }) ()
  in
  (match Vma.file_page vma ~vpn:102 with
  | Some (_, idx) -> check int_t "offset applied" 5 idx
  | None -> Alcotest.fail "expected file page");
  check bool_t "outside" true (Vma.file_page vma ~vpn:104 = None)

let test_mremap_empty_range () =
  (* mremap of a never-touched mapping: no PTEs move, VMA still moves. *)
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
      let addr' = Syscall.mremap m ~cpu:0 ~addr ~pages:4 in
      check bool_t "moved" true (addr' <> addr);
      Access.touch_range m ~cpu:0 ~addr:addr' ~pages:4 ~write:true);
  Kernel.run m

let test_migrate_from_kernel_context () =
  (* Kernel-thread migration daemon (no user mode to return to). *)
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"app" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      (* A kernel service migrates on our CPU's behalf from cpu 1; it needs
         the mm loaded there to flush correctly, so load it. *)
      ignore (Migrate.migrate_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages:2);
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true);
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let suite =
  [
    Alcotest.test_case "opts pp lists flags" `Quick test_opts_pp_lists_enabled;
    Alcotest.test_case "engine events_run" `Quick test_engine_events_run_counter;
    Alcotest.test_case "trace shows protocol" `Quick test_trace_of_real_shootdown_mentions_protocol;
    Alcotest.test_case "smp ack idempotent" `Quick test_smp_ack_idempotent;
    Alcotest.test_case "microbench responder cpus" `Quick test_microbench_responder_cpus;
    Alcotest.test_case "hugepage + batching" `Quick test_hugepage_with_batching_safe;
    Alcotest.test_case "fork requires loaded mm" `Quick test_fork_requires_loaded_mm;
    Alcotest.test_case "ksm same-frame skip" `Quick test_ksm_merge_same_frame_skipped;
    Alcotest.test_case "vma file_page offsets" `Quick test_vma_file_page_mapping;
    Alcotest.test_case "mremap empty range" `Quick test_mremap_empty_range;
    Alcotest.test_case "migrate from kernel path" `Quick test_migrate_from_kernel_context;
  ]
