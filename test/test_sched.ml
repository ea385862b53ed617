(* Context switching, PCID (ASID) recycling and lazy-TLB mode: the §2.1
   machinery that makes PTI affordable and that shootdown targeting
   depends on. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* The CPUs in the mm's cpumask, ascending. *)
let cpus mm = Cpuset.to_list (Mm_struct.cpuset mm)

let make () = Machine.create ~opts:(Opts.baseline ~safe:true) ~seed:41L ()

(* Map and touch one page of [mm] on [cpu]; returns its vpn. *)
let plant m mm ~cpu =
  let vpn = Mm_struct.alloc_va_range mm ~pages:1 () in
  Mm_struct.add_vma mm (Vma.make ~start_vpn:vpn ~pages:1 ());
  Page_table.map (Mm_struct.page_table mm) ~vpn ~size:Tlb.Four_k
    (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames));
  Access.touch_range m ~cpu ~addr:(Addr.addr_of_vpn vpn) ~pages:1 ~write:false;
  vpn

let user_pcid m cpu =
  Percpu.user_pcid (Machine.percpu m cpu).Percpu.curr_asid

let test_pcid_preserves_entries_across_switch () =
  let m = make () in
  let mm_a = Machine.new_mm m in
  let mm_b = Machine.new_mm m in
  Process.spawn m.Machine.engine ~name:"switcher" (fun () ->
      Sched.switch_mm m ~cpu:0 mm_a;
      let vpn_a = plant m mm_a ~cpu:0 in
      let pcid_a = user_pcid m 0 in
      (* Switch away and back: with PCIDs, A's translations survive. *)
      Sched.switch_mm m ~cpu:0 mm_b;
      check bool_t "different pcid for B" true (user_pcid m 0 <> pcid_a);
      Sched.switch_mm m ~cpu:0 mm_a;
      check int_t "same pcid again" pcid_a (user_pcid m 0);
      check bool_t "A's entry survived the context switches" true
        (Tlb.mem (Cpu.tlb (Machine.cpu m 0)) ~pcid:pcid_a ~vpn:vpn_a));
  Kernel.run m

let test_asid_recycling_flushes_old_pcid () =
  let m = make () in
  let mms = List.init (Percpu.n_asids + 1) (fun _ -> Machine.new_mm m) in
  Process.spawn m.Machine.engine ~name:"cycler" (fun () ->
      let first = List.hd mms in
      Sched.switch_mm m ~cpu:0 first;
      let vpn = plant m first ~cpu:0 in
      let pcid_first = user_pcid m 0 in
      (* Burn through all remaining ASIDs, plus one: first's slot is
         recycled and its stale entries must be flushed with it. *)
      List.iter (fun mm -> Sched.switch_mm m ~cpu:0 mm) (List.tl mms);
      check bool_t "entry gone once the slot was recycled" false
        (Tlb.mem (Cpu.tlb (Machine.cpu m 0)) ~pcid:pcid_first ~vpn));
  Kernel.run m

let test_switch_in_catches_up_generations () =
  let m = make () in
  let mm = Machine.new_mm m in
  let other = Machine.new_mm m in
  Process.spawn m.Machine.engine ~name:"victim" (fun () ->
      Sched.switch_mm m ~cpu:0 mm;
      let vpn = plant m mm ~cpu:0 in
      let pcid = user_pcid m 0 in
      Sched.switch_mm m ~cpu:0 other;
      (* While away, another CPU changes mm's PTEs. cpu0 is no longer in
         the cpumask, so no IPI goes there; the generation moved on. *)
      check bool_t "cpu0 left the cpumask" false (Cpuset.mem (Mm_struct.cpuset mm) 0);
      ignore (Page_table.unmap (Mm_struct.page_table mm) ~vpn ());
      ignore (Mm_struct.bump_tlb_gen mm);
      (* Switching back must notice; the user-PCID half completes with the
         return-to-user CR3 load, before any user instruction runs. *)
      Sched.switch_mm m ~cpu:0 mm;
      check bool_t "full user flush pending after switch-in" true
        ((Machine.percpu m 0).Percpu.pending_user = Percpu.Full_flush);
      Shootdown.return_to_user m ~cpu:0 ~has_stack:true;
      check bool_t "stale entry flushed before user code" false
        (Tlb.mem (Cpu.tlb (Machine.cpu m 0)) ~pcid ~vpn));
  Kernel.run m

let test_switch_same_mm_is_cheap () =
  let m = make () in
  let mm = Machine.new_mm m in
  Process.spawn m.Machine.engine ~name:"t" (fun () ->
      Sched.switch_mm m ~cpu:0 mm;
      let t0 = Machine.now m in
      Sched.switch_mm m ~cpu:0 mm;
      (* Same mm: no CR3 write, no flush — only the lazy-flag clear. *)
      check bool_t "near-free" true (Machine.now m - t0 < 50));
  Kernel.run m

let test_cpumask_tracks_switches () =
  let m = make () in
  let mm_a = Machine.new_mm m in
  let mm_b = Machine.new_mm m in
  Process.spawn m.Machine.engine ~name:"t" (fun () ->
      Sched.switch_mm m ~cpu:3 mm_a;
      check (Alcotest.list int_t) "A on cpu3" [ 3 ] (cpus mm_a);
      Sched.switch_mm m ~cpu:3 mm_b;
      check (Alcotest.list int_t) "A vacated" [] (cpus mm_a);
      check (Alcotest.list int_t) "B on cpu3" [ 3 ] (cpus mm_b);
      Sched.unload m ~cpu:3;
      check (Alcotest.list int_t) "B vacated on unload" [] (cpus mm_b));
  Kernel.run m

let test_lazy_mode_round_trip () =
  let m = make () in
  let mm = Machine.new_mm m in
  Process.spawn m.Machine.engine ~name:"t" (fun () ->
      Sched.switch_mm m ~cpu:0 mm;
      Sched.enter_lazy m ~cpu:0;
      check bool_t "lazy" true (Machine.percpu m 0).Percpu.lazy_mode;
      (* The mm stays loaded and in the cpumask while lazy. *)
      check bool_t "still in mask" true (Cpuset.mem (Mm_struct.cpuset mm) 0);
      Sched.exit_lazy m ~cpu:0;
      check bool_t "not lazy" false (Machine.percpu m 0).Percpu.lazy_mode);
  Kernel.run m

let test_two_threads_two_mms_isolated () =
  (* Two processes on two CPUs never see each other's translations even
     with identical virtual addresses. *)
  let m = make () in
  let mm_a = Machine.new_mm m in
  let mm_b = Machine.new_mm m in
  let crossed = ref false in
  let barrier = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:0 ~mm:mm_a ~name:"a" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      Waitq.Completion.fire barrier);
  Kernel.spawn_user m ~cpu:1 ~mm:mm_b ~name:"b" (fun () ->
      Waitq.Completion.wait barrier;
      (* mm_b has no mappings: the same address range must fault, not hit
         mm_a's translations. *)
      let addr = Addr.addr_of_vpn (1 lsl 20) in
      (try Access.read m ~cpu:1 ~vaddr:addr with Fault.Segfault _ -> crossed := false);
      let s = Tlb.stats (Cpu.tlb (Machine.cpu m 1)) in
      if s.Tlb.hits > 0 then crossed := true);
  Kernel.run m;
  check bool_t "no cross-address-space hits" false !crossed

let suite =
  [
    Alcotest.test_case "pcid preserves entries across switches" `Quick
      test_pcid_preserves_entries_across_switch;
    Alcotest.test_case "asid recycling flushes the old pcid" `Quick
      test_asid_recycling_flushes_old_pcid;
    Alcotest.test_case "switch-in catches up generations" `Quick
      test_switch_in_catches_up_generations;
    Alcotest.test_case "same-mm switch is cheap" `Quick test_switch_same_mm_is_cheap;
    Alcotest.test_case "cpumask tracks switches" `Quick test_cpumask_tracks_switches;
    Alcotest.test_case "lazy mode round trip" `Quick test_lazy_mode_round_trip;
    Alcotest.test_case "address spaces isolated" `Quick test_two_threads_two_mms_isolated;
  ]
