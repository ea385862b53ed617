(* Failure injection and stress: IRQ-disabled responders (§2.2 notes
   device-driver code can keep interrupts masked, inflating shootdown
   latency), concurrent multi-initiator storms, and determinism. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.all_general ~safe:true) ?(seed = 71L) () =
  Machine.create ~opts ~seed ()

(* Shootdown latency with a responder that masks IRQs for [masked] cycles
   out of every [period]. *)
let latency_with_masking ~masked ~period =
  let m = make () in
  let mm = Machine.new_mm m in
  let stop = ref false in
  let measured = ref 0 in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"driver" (fun () ->
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        (* Critical section with interrupts off, as driver code would. *)
        if masked > 0 then begin
          Cpu.quiesce_and_mask cpu_t;
          Cpu.compute cpu_t ~quantum:100 masked;
          Cpu.irq_enable cpu_t
        end;
        Cpu.compute cpu_t ~quantum:100 (period - masked)
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 2_000;
      let start_vpn = Mm_struct.alloc_va_range mm ~pages:1 () in
      Mm_struct.add_vma mm (Vma.make ~start_vpn ~pages:1 ());
      Page_table.map (Mm_struct.page_table mm) ~vpn:start_vpn ~size:Tlb.Four_k
        (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames));
      Access.touch_range m ~cpu:0 ~addr:(Addr.addr_of_vpn start_vpn) ~pages:1
        ~write:false;
      let t0 = Machine.now m in
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn:start_vpn;
      measured := Machine.now m - t0;
      Machine.delay m 10_000;
      stop := true);
  Kernel.run m;
  check int_t "coherent despite masking" 0 (Checker.violation_count m.Machine.checker);
  !measured

let test_masked_responder_delays_shootdown () =
  let unmasked = latency_with_masking ~masked:0 ~period:5_000 in
  let masked = latency_with_masking ~masked:4_500 ~period:5_000 in
  (* How much extra latency the mask adds depends on where in the masked
     window the IPI lands; any clear inflation suffices. *)
  check bool_t
    (Printf.sprintf "masking inflates latency (%d vs %d)" masked unmasked)
    true
    (masked > unmasked + 500)

let test_masked_responder_still_completes () =
  (* Even with 95% masked duty cycle the protocol terminates and stays
     correct — no lost IPIs, no stale reads. *)
  let l = latency_with_masking ~masked:9_500 ~period:10_000 in
  check bool_t "finite" true (l > 0)

let test_many_initiators_storm () =
  (* Eight mutators madvise their own ranges of one address space
     concurrently: shootdowns cross in flight, responders double as
     initiators. The checker and determinism must both hold. *)
  let run seed =
    let m = make ~opts:(Opts.all ~safe:true) ~seed () in
    let mm = Machine.new_mm m in
    List.iter
      (fun cpu ->
        Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "mut%d" cpu) (fun () ->
            let addr = Syscall.mmap m ~cpu ~pages:4 () in
            for _ = 1 to 8 do
              Access.touch_range m ~cpu ~addr ~pages:4 ~write:true;
              Syscall.madvise_dontneed m ~cpu ~addr ~pages:4
            done))
      [ 0; 1; 2; 3; 14; 15; 16; 17 ];
    Kernel.run m;
    check int_t "storm is coherent" 0 (Checker.violation_count m.Machine.checker);
    Machine.now m
  in
  let a = run 5L and b = run 5L in
  check int_t "deterministic under storm" a b

let test_mixed_operations_stress () =
  (* Everything at once: fork + migration + dedup + madvise + msync with
     readers, under the full optimization stack. *)
  let m = make ~opts:(Opts.all ~safe:true) ~seed:83L () in
  let parent = Machine.new_mm m in
  let pages = 16 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm:parent ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        (try Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false
         with Fault.Segfault _ -> ());
        Cpu.compute cpu_t ~quantum:100 300
      done);
  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"main" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 2_000;
      let vpn = Addr.vpn_of_addr addr in
      (* fork, then shake the address space in every way we have. *)
      let child = Fork.fork m ~cpu:0 in
      Kernel.spawn_user m ~cpu:1 ~mm:child ~name:"child" (fun () ->
          for i = 0 to pages - 1 do
            Access.write m ~cpu:1 ~vaddr:(addr + (i * Addr.page_size))
          done);
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      ignore (Migrate.migrate_range m ~cpu:0 ~mm:parent ~vpn ~pages:(pages / 2));
      ignore (Ksm.dedup_range m ~cpu:0 ~mm:parent ~vpn:(vpn + (pages / 2)) ~pages:(pages / 2));
      Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:(pages / 4);
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Machine.delay m 30_000;
      stop := true);
  Kernel.run m;
  check int_t "combined stress coherent" 0 (Checker.violation_count m.Machine.checker);
  check bool_t "work actually happened" true
    (m.Machine.stats.Machine.shootdowns > 0 && m.Machine.stats.Machine.cow_breaks > 0)

let test_no_frame_leaks_after_teardown () =
  let m = make ~opts:(Opts.all ~safe:true) () in
  let mm = Machine.new_mm m in
  let baseline_frames = ref 0 in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      baseline_frames := Frame_alloc.allocated m.Machine.frames;
      for _ = 1 to 10 do
        let addr = Syscall.mmap m ~cpu:0 ~pages:8 () in
        Access.touch_range m ~cpu:0 ~addr ~pages:8 ~write:true;
        ignore (Migrate.migrate_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages:8);
        ignore (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages:8);
        Access.touch_range m ~cpu:0 ~addr ~pages:8 ~write:true;
        Syscall.munmap m ~cpu:0 ~addr ~pages:8
      done;
      check int_t "all frames returned" !baseline_frames
        (Frame_alloc.allocated m.Machine.frames));
  Kernel.run m

let suite =
  [
    Alcotest.test_case "masked responder delays shootdown" `Quick
      test_masked_responder_delays_shootdown;
    Alcotest.test_case "masked responder still completes" `Quick
      test_masked_responder_still_completes;
    Alcotest.test_case "multi-initiator storm" `Quick test_many_initiators_storm;
    Alcotest.test_case "mixed operations stress" `Quick test_mixed_operations_stress;
    Alcotest.test_case "no frame leaks after teardown" `Quick test_no_frame_leaks_after_teardown;
  ]
