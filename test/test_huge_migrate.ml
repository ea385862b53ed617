(* Hugepage mappings (2 MiB stride flushes), page migration, and the
   FreeBSD serialized-shootdown comparator. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.baseline ~safe:true) () = Machine.create ~opts ~seed:53L ()

(* --- hugepages --- *)

let test_huge_mmap_fault_maps_2m () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:1024 ~page_size:Tlb.Two_m () in
      check bool_t "aligned base" true (Addr.huge_aligned (Addr.vpn_of_addr addr));
      Access.write m ~cpu:0 ~vaddr:addr;
      (* One fault maps a whole 2 MiB page. *)
      let pt = Mm_struct.page_table mm in
      let pte = Page_table.walk pt ~vpn:(Addr.vpn_of_addr addr + 37) in
      check bool_t "mapped" true (Pte.present pte);
      check bool_t "2M mapping" true (Pte.size pte = Tlb.Two_m);
      check int_t "one fault" 1 m.Machine.stats.Machine.faults;
      (* Accesses within the hugepage hit without further faults. *)
      Access.touch_range m ~cpu:0 ~addr ~pages:512 ~write:false;
      check int_t "still one fault" 1 m.Machine.stats.Machine.faults;
      (* The second hugepage faults separately. *)
      Access.write m ~cpu:0 ~vaddr:(addr + Addr.addr_of_vpn Addr.pages_per_huge);
      check int_t "two faults" 2 m.Machine.stats.Machine.faults);
  Kernel.run m

let test_huge_tlb_single_entry () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:512 ~page_size:Tlb.Two_m () in
      Access.touch_range m ~cpu:0 ~addr ~pages:512 ~write:true;
      let s = Tlb.stats (Cpu.tlb (Machine.cpu m 0)) in
      (* One insertion covers all 512 4K accesses. *)
      check int_t "one TLB insertion for the hugepage" 1 s.Tlb.insertions);
  Kernel.run m

let test_huge_madvise_uses_2m_stride () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:1024 ~page_size:Tlb.Two_m () in
      Access.write m ~cpu:0 ~vaddr:addr;
      Access.write m ~cpu:0 ~vaddr:(addr + Addr.addr_of_vpn Addr.pages_per_huge);
      let frames_before = Frame_alloc.allocated m.Machine.frames in
      let invlpg_before = (Tlb.stats (Cpu.tlb (Machine.cpu m 0))).Tlb.invlpg_ops in
      Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:1024;
      (* 1024 4K pages = 2 hugepages: the flush walks 2 entries with the
         2 MiB stride, not 1024 INVLPGs (and not a full flush: 2 <= 33). *)
      let invlpg_after = (Tlb.stats (Cpu.tlb (Machine.cpu m 0))).Tlb.invlpg_ops in
      check int_t "two stride-2M INVLPGs" 2 (invlpg_after - invlpg_before);
      check int_t "hugepage frames freed" (frames_before - 1024)
        (Frame_alloc.allocated m.Machine.frames);
      (* Refault works. *)
      Access.write m ~cpu:0 ~vaddr:addr);
  Kernel.run m;
  check int_t "no coherence violations" 0 (Checker.violation_count m.Machine.checker)

let test_huge_flush_covers_whole_page () =
  let m = make ~opts:(Opts.all_general ~safe:true) () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:512 ~page_size:Tlb.Two_m () in
      Access.write m ~cpu:0 ~vaddr:(addr + (100 * Addr.page_size));
      Syscall.munmap m ~cpu:0 ~addr ~pages:512;
      (* Any access inside the former hugepage must fault (VMA gone). *)
      match Access.read m ~cpu:0 ~vaddr:(addr + (511 * Addr.page_size)) with
      | () -> Alcotest.fail "expected segfault"
      | exception Fault.Segfault _ -> ());
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_huge_vma_split_rejected () =
  let m = make () in
  let mm = Machine.new_mm m in
  let got = ref false in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:1024 ~page_size:Tlb.Two_m () in
      (* Unmapping a sub-2M piece of a hugepage VMA is rejected. *)
      (try Syscall.munmap m ~cpu:0 ~addr:(addr + (4 * Addr.page_size)) ~pages:16
       with Invalid_argument _ -> got := true);
      (* Splitting at a 2 MiB boundary is fine. *)
      Syscall.munmap m ~cpu:0 ~addr ~pages:512);
  Kernel.run m;
  check bool_t "sub-2M split rejected" true !got

(* --- migration --- *)

let test_migration_moves_frame () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:1 () in
      Access.write m ~cpu:0 ~vaddr:addr;
      let vpn = Addr.vpn_of_addr addr in
      let pt = Mm_struct.page_table mm in
      let old = Page_table.walk pt ~vpn in
      if not (Pte.present old) then Alcotest.fail "not mapped";
      let old_pfn = Pte.pfn old in
      check int_t "migrated" 1 (Migrate.migrate_range m ~cpu:0 ~mm ~vpn ~pages:1);
      let pte = Page_table.walk pt ~vpn in
      check bool_t "still mapped" true (Pte.present pte);
      check bool_t "new frame" true (Pte.pfn pte <> old_pfn);
      check bool_t "still writable" true (Pte.writable pte);
      check bool_t "old frame recycled" false (Frame_alloc.is_allocated m.Machine.frames old_pfn);
      (* Access after migration works and is checker-clean. *)
      Access.write m ~cpu:0 ~vaddr:addr);
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_migration_skips_file_and_absent () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let file = File.create m.Machine.frames ~name:"f" ~size_pages:1 in
      let faddr =
        Syscall.mmap m ~cpu:0 ~pages:1 ~backing:(Vma.File_shared { file; offset = 0 }) ()
      in
      Access.write m ~cpu:0 ~vaddr:faddr;
      check int_t "file page skipped" 0
        (Migrate.migrate_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr faddr) ~pages:1);
      check int_t "absent page skipped" 0
        (Migrate.migrate_range m ~cpu:0 ~mm ~vpn:12345 ~pages:1));
  Kernel.run m

let test_migration_under_concurrent_readers_safe () =
  (* The checker's frame-remap detection is exactly what migration without
     a correct double-shootdown would trip. Run with all optimizations. *)
  let m = make ~opts:(Opts.all ~safe:true) () in
  let mm = Machine.new_mm m in
  let pages = 16 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false;
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"migrator" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 3_000;
      for round = 1 to 6 do
        ignore round;
        let migrated =
          Migrate.migrate_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages
        in
        check int_t "all pages migrated" pages migrated
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check int_t "migration under readers is coherent" 0
    (Checker.violation_count m.Machine.checker);
  check bool_t "reader raced benignly" true (Checker.benign_races m.Machine.checker >= 0)

let test_migration_with_lazy_batching_violates () =
  (* Under the unsafe strawman, migration recycles frames while remote TLBs
     still map them: the canonical LATR-footnote bug (§2.3.2). *)
  let opts = { (Opts.baseline ~safe:true) with Opts.fault = Some Opts.Lazy_strawman } in
  let m = make ~opts () in
  let mm = Machine.new_mm m in
  let pages = 8 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false;
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"migrator" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 3_000;
      for _ = 1 to 4 do
        ignore (Migrate.migrate_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages)
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check bool_t "stale frame reads detected" true
    (Checker.violation_count m.Machine.checker > 0)

(* --- FreeBSD comparator --- *)

let test_freebsd_preset () =
  let o = Opts.freebsd ~safe:true in
  check bool_t "protocol flag" true (Opts.knobs o).Opts.serialized;
  check int_t "4096 ceiling" 4096 o.Opts.full_flush_threshold

let test_freebsd_serializes_but_stays_correct () =
  let m = make ~opts:(Opts.freebsd ~safe:true) () in
  let mm = Machine.new_mm m in
  let stop = ref false in
  (* Three mutators shooting each other down concurrently; the mutex
     serializes, the checker verifies. *)
  List.iter
    (fun cpu ->
      Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "mut%d" cpu) (fun () ->
          let addr = Syscall.mmap m ~cpu ~pages:4 () in
          for _ = 1 to 10 do
            Access.touch_range m ~cpu ~addr ~pages:4 ~write:true;
            Syscall.madvise_dontneed m ~cpu ~addr ~pages:4
          done))
    [ 0; 1; 2 ];
  Kernel.spawn_user m ~cpu:3 ~mm ~name:"bystander" (fun () ->
      let cpu_t = Machine.cpu m 3 in
      while not !stop do
        Cpu.compute cpu_t ~quantum:100 100
      done);
  Helpers.schedule m.Machine.engine ~delay:5_000_000 (fun () -> stop := true);
  Kernel.run m;
  check int_t "correct under serialization" 0 (Checker.violation_count m.Machine.checker);
  check bool_t "shootdowns happened" true (m.Machine.stats.Machine.shootdowns > 0)

let test_freebsd_slower_under_contention () =
  let run opts =
    let m = make ~opts () in
    let mm = Machine.new_mm m in
    let finished = ref 0 in
    List.iter
      (fun cpu ->
        Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "mut%d" cpu) (fun () ->
            let addr = Syscall.mmap m ~cpu ~pages:4 () in
            for _ = 1 to 12 do
              Access.touch_range m ~cpu ~addr ~pages:4 ~write:true;
              Syscall.madvise_dontneed m ~cpu ~addr ~pages:4
            done;
            incr finished))
      [ 0; 1; 2; 3 ];
    Kernel.run m;
    check int_t "all finished" 4 !finished;
    Machine.now m
  in
  let linux = run (Opts.baseline ~safe:true) in
  let freebsd = run (Opts.freebsd ~safe:true) in
  check bool_t
    (Printf.sprintf "serialized protocol slower (%d vs %d)" freebsd linux)
    true (freebsd > linux)

let suite =
  [
    Alcotest.test_case "huge: mmap+fault maps 2M" `Quick test_huge_mmap_fault_maps_2m;
    Alcotest.test_case "huge: one TLB entry" `Quick test_huge_tlb_single_entry;
    Alcotest.test_case "huge: madvise uses 2M stride" `Quick test_huge_madvise_uses_2m_stride;
    Alcotest.test_case "huge: munmap coherent" `Quick test_huge_flush_covers_whole_page;
    Alcotest.test_case "huge: sub-2M split rejected" `Quick test_huge_vma_split_rejected;
    Alcotest.test_case "migrate: moves frame" `Quick test_migration_moves_frame;
    Alcotest.test_case "migrate: skips file/absent" `Quick test_migration_skips_file_and_absent;
    Alcotest.test_case "migrate: safe under readers" `Quick test_migration_under_concurrent_readers_safe;
    Alcotest.test_case "migrate: lazy batching violates" `Quick test_migration_with_lazy_batching_violates;
    Alcotest.test_case "freebsd: preset" `Quick test_freebsd_preset;
    Alcotest.test_case "freebsd: correct under contention" `Quick test_freebsd_serializes_but_stays_correct;
    Alcotest.test_case "freebsd: slower under contention" `Quick test_freebsd_slower_under_contention;
  ]
