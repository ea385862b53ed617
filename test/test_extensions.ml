(* Tests for the paper's ancillary mechanisms: the nmi_uaccess_okay check
   extended for early acknowledgement (§3.2), the IRQ-quiescent
   return-to-user path, CPU occupancy/dispatch rules, and the §7
   paravirtual fracturing hint. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.all_general ~safe:true) () = Machine.create ~opts ~seed:77L ()

(* --- nmi_uaccess_okay --- *)

let test_nmi_okay_when_quiescent () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      check bool_t "quiescent CPU is okay" true (Shootdown.nmi_uaccess_okay m ~cpu:0));
  Kernel.run m

let test_nmi_not_okay_without_mm () =
  let m = make () in
  check bool_t "no loaded mm" false (Shootdown.nmi_uaccess_okay m ~cpu:3)

let test_nmi_not_okay_with_pending_user_flush () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let start_vpn = Mm_struct.alloc_va_range mm ~pages:2 () in
      Mm_struct.add_vma mm (Vma.make ~start_vpn ~pages:2 ());
      let pt = Mm_struct.page_table mm in
      for i = 0 to 1 do
        Page_table.map pt ~vpn:(start_vpn + i) ~size:Tlb.Four_k
          (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames))
      done;
      Access.touch_range m ~cpu:0 ~addr:(Addr.addr_of_vpn start_vpn) ~pages:2
        ~write:false;
      (* In-context deferral leaves a pending user flush behind. *)
      Shootdown.flush_tlb_mm_range m ~from:0 ~mm ~start_vpn ~pages:2 ();
      check bool_t "pending deferral blocks NMI uaccess" false
        (Shootdown.nmi_uaccess_okay m ~cpu:0);
      Shootdown.flush_pending_user m ~cpu:0 ~has_stack:true;
      check bool_t "okay after the deferred flush ran" true
        (Shootdown.nmi_uaccess_okay m ~cpu:0));
  Kernel.run m

let test_nmi_during_early_ack_window () =
  (* An NMI lands on the responder inside the IPI handler, after the early
     ack but potentially before the flush: nmi_uaccess_okay must be false
     there, and true again once the responder returns to user work. *)
  let m = make () in
  let mm = Machine.new_mm m in
  let observed_in_handler = ref None in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"responder" (fun () ->
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 2_000;
      let start_vpn = Mm_struct.alloc_va_range mm ~pages:1 () in
      Mm_struct.add_vma mm (Vma.make ~start_vpn ~pages:1 ());
      Page_table.map (Mm_struct.page_table mm) ~vpn:start_vpn ~size:Tlb.Four_k
        (Pte.user_data ~pfn:(Frame_alloc.alloc m.Machine.frames));
      Access.touch_range m ~cpu:0 ~addr:(Addr.addr_of_vpn start_vpn) ~pages:1
        ~write:false;
      (* Fire an NMI timed to land mid-handler on the responder: post it
         just after the IPI goes out. *)
      Helpers.schedule m.Machine.engine ~delay:900 (fun () ->
          Cpu.post_irq (Machine.cpu m 14)
            (Helpers.irq ~maskable:false 2 (fun _ ->
                 observed_in_handler := Some (Shootdown.nmi_uaccess_okay m ~cpu:14))));
      Shootdown.flush_tlb_page m ~from:0 ~mm ~vpn:start_vpn;
      Machine.delay m 20_000;
      check bool_t "okay once the responder is quiescent again" true
        (Shootdown.nmi_uaccess_okay m ~cpu:14);
      stop := true);
  Kernel.run m;
  match !observed_in_handler with
  | Some okay ->
      check bool_t "NMI during shootdown window saw not-okay" false okay
  | None -> Alcotest.fail "NMI never delivered during the window"

(* --- occupancy / detached dispatch rules --- *)

let test_detached_dispatch_on_empty_cpu () =
  (* No process occupies cpu 5: an IPI must still be handled. *)
  let m = make () in
  let handled = ref false in
  Helpers.spawn_kernel m ~cpu:0 ~name:"sender" (fun () ->
      ignore
        (Helpers.send_ipi m.Machine.apic ~from:0 ~targets:[ 5 ]
           (Helpers.irq 1 (fun _ -> handled := true))));
  Kernel.run m;
  check bool_t "handled with no occupant" true !handled

let test_no_dispatch_interleaves_user_mode () =
  (* While a user thread runs, handlers must execute at its service points,
     never concurrently with user execution: the handler sees in_user =
     false always. *)
  let m = make () in
  let mm = Machine.new_mm m in
  let saw_user_true = ref false in
  let stop = ref false in
  Kernel.spawn_user m ~cpu:2 ~mm ~name:"worker" (fun () ->
      let cpu_t = Machine.cpu m 2 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:50 200
      done);
  Helpers.spawn_kernel m ~cpu:0 ~name:"sender" (fun () ->
      for _ = 1 to 10 do
        Machine.delay m 700;
        ignore
          (Helpers.send_ipi m.Machine.apic ~from:0 ~targets:[ 2 ]
             (Helpers.irq 1 (fun cpu -> if Cpu.in_user cpu then saw_user_true := true)))
      done;
      Machine.delay m 10_000;
      stop := true);
  Kernel.run m;
  check bool_t "handler never saw user mode active" false !saw_user_true

let test_quiesce_and_mask_waits_for_handler () =
  let m = make () in
  let handler_done = ref false in
  let checked_after = ref false and suspensions = ref (-1) in
  (* Detached handler starts on cpu 7 (no occupant), taking 2000 cycles. *)
  Helpers.spawn_kernel m ~cpu:0 ~name:"sender" (fun () ->
      ignore
        (Helpers.send_ipi m.Machine.apic ~from:0 ~targets:[ 7 ]
           (Helpers.irq 1 ignore ~cycles:2_000 ~at_end:(fun _ -> handler_done := true))));
  Helpers.spawn_kernel m ~cpu:7 ~name:"quiescer" (fun () ->
      Machine.delay m 1_200;
      (* The detached handler is mid-flight now. *)
      let s0 = Engine.suspensions () in
      Cpu.quiesce_and_mask (Machine.cpu m 7);
      suspensions := Engine.suspensions () - s0;
      checked_after := !handler_done;
      Cpu.irq_enable (Machine.cpu m 7));
  Kernel.run m;
  check bool_t "quiesce returned only after the handler finished" true !checked_after;
  check int_t "the wait is one suspension" 1 !suspensions

(* --- paravirtual fracturing hint (§7 extension) --- *)

let fractured_mmu () =
  let guest = Page_table.create () in
  Page_table.map guest ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:2048);
  let ept = Ept.create () in
  for i = 0 to 511 do
    Ept.map ept ~gfn:(2048 + i) ~size:Tlb.Four_k ~hfn:(9000 + i)
  done;
  Nested_mmu.create ~guest ~ept ~pcid:1 ()

let test_paravirt_hint_off_by_default () =
  let mmu = fractured_mmu () in
  ignore (Nested_mmu.touch_range mmu ~start_vpn:1024 ~pages:8);
  let n = Nested_mmu.flush_pages mmu ~vpns:[ 1024; 1025; 1026 ] in
  check int_t "three selective flushes issued" 3 n;
  (* Each was promoted to a full flush by the fracture flag... *)
  check bool_t "promotions recorded" true
    ((Tlb.stats (Nested_mmu.tlb mmu)).Tlb.fracture_full_flushes >= 1)

let test_paravirt_hint_collapses_to_one_flush () =
  let mmu = fractured_mmu () in
  Nested_mmu.set_paravirt_fracture_hint mmu true;
  ignore (Nested_mmu.touch_range mmu ~start_vpn:1024 ~pages:8);
  let n = Nested_mmu.flush_pages mmu ~vpns:[ 1024; 1025; 1026 ] in
  check int_t "single full flush" 1 n;
  check int_t "TLB empty either way" 0 (List.length (Tlb.entries (Nested_mmu.tlb mmu)))

let test_paravirt_hint_same_final_state () =
  let final_state hint =
    let mmu = fractured_mmu () in
    Nested_mmu.set_paravirt_fracture_hint mmu hint;
    ignore (Nested_mmu.touch_range mmu ~start_vpn:1024 ~pages:64);
    ignore (Nested_mmu.flush_pages mmu ~vpns:[ 1030 ]);
    let _, misses = Nested_mmu.touch_range mmu ~start_vpn:1024 ~pages:64 in
    misses
  in
  check int_t "hint changes cost, not the resulting misses" (final_state false)
    (final_state true)

let suite =
  [
    Alcotest.test_case "nmi: okay when quiescent" `Quick test_nmi_okay_when_quiescent;
    Alcotest.test_case "nmi: not okay without mm" `Quick test_nmi_not_okay_without_mm;
    Alcotest.test_case "nmi: pending deferral blocks uaccess" `Quick
      test_nmi_not_okay_with_pending_user_flush;
    Alcotest.test_case "nmi: early-ack window detected" `Quick test_nmi_during_early_ack_window;
    Alcotest.test_case "cpu: detached dispatch on empty cpu" `Quick
      test_detached_dispatch_on_empty_cpu;
    Alcotest.test_case "cpu: handlers never interleave user mode" `Quick
      test_no_dispatch_interleaves_user_mode;
    Alcotest.test_case "cpu: quiesce waits for in-flight handler" `Quick
      test_quiesce_and_mask_waits_for_handler;
    Alcotest.test_case "paravirt: hint off by default" `Quick test_paravirt_hint_off_by_default;
    Alcotest.test_case "paravirt: hint collapses flushes" `Quick
      test_paravirt_hint_collapses_to_one_flush;
    Alcotest.test_case "paravirt: same final TLB state" `Quick test_paravirt_hint_same_final_state;
  ]
