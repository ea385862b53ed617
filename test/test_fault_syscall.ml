(* End-to-end tests of the access/fault path and the syscall layer. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let dirty_pages file = List.length (File.dirty_in_range file ~index:0 ~count:16)

let make ?(opts = Opts.baseline ~safe:true) () = Machine.create ~opts ~seed:17L ()

let run_user ?opts body =
  let m = make ?opts () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"main" (fun () -> body m mm);
  Kernel.run m;
  m

let user_pcid_of m cpu =
  let pcpu = Machine.percpu m cpu in
  if m.Machine.opts.Opts.safe then Percpu.user_pcid pcpu.Percpu.curr_asid
  else Percpu.kernel_pcid pcpu.Percpu.curr_asid

let test_anon_demand_paging () =
  let m =
    run_user (fun m mm ->
        let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
        check int_t "no PTEs yet" 0 (Page_table.mapped_count (Mm_struct.page_table mm));
        Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
        check int_t "4 PTEs" 4 (Page_table.mapped_count (Mm_struct.page_table mm));
        (* Second touch is TLB-warm: no new faults. *)
        let faults = m.Machine.stats.Machine.faults in
        Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
        check int_t "no new faults" faults m.Machine.stats.Machine.faults)
  in
  check int_t "4 faults" 4 m.Machine.stats.Machine.faults

let test_segfault_on_unmapped () =
  let got = ref false in
  let _m =
    run_user (fun m _mm ->
        try Access.read m ~cpu:0 ~vaddr:0xdead000 with
        | Fault.Segfault { sf_cpu; _ } ->
            got := true;
            check int_t "cpu" 0 sf_cpu)
  in
  check bool_t "segfaulted" true !got

let test_segfault_on_write_to_readonly_vma () =
  let got = ref false in
  let _m =
    run_user (fun m _mm ->
        let addr = Syscall.mmap m ~cpu:0 ~pages:1 ~writable:false () in
        Access.read m ~cpu:0 ~vaddr:addr;
        try Access.write m ~cpu:0 ~vaddr:addr with Fault.Segfault _ -> got := true)
  in
  check bool_t "write rejected" true !got

let test_madvise_frees_anon_frames () =
  let _m =
    run_user (fun m mm ->
        let before = Frame_alloc.allocated m.Machine.frames in
        let addr = Syscall.mmap m ~cpu:0 ~pages:8 () in
        Access.touch_range m ~cpu:0 ~addr ~pages:8 ~write:true;
        check int_t "8 frames used" (before + 8) (Frame_alloc.allocated m.Machine.frames);
        Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:8;
        check int_t "frames reclaimed" before (Frame_alloc.allocated m.Machine.frames);
        check int_t "PTEs gone" 0 (Page_table.mapped_count (Mm_struct.page_table mm));
        (* The VMA survives DONTNEED: touching refaults fresh zero pages. *)
        Access.touch_range m ~cpu:0 ~addr ~pages:8 ~write:true;
        check int_t "refaulted" (before + 8) (Frame_alloc.allocated m.Machine.frames))
  in
  ()

let test_munmap_removes_vma_and_tables () =
  let _m =
    run_user (fun m mm ->
        let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
        Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
        let tables = Page_table.table_pages (Mm_struct.page_table mm) in
        check bool_t "tables exist" true (tables > 0);
        Syscall.munmap m ~cpu:0 ~addr ~pages:4;
        check int_t "tables freed" 0 (Page_table.table_pages (Mm_struct.page_table mm));
        check bool_t "vma gone" true (Mm_struct.find_vma mm ~vpn:(Addr.vpn_of_addr addr) = None);
        (* Accessing now segfaults. *)
        match Access.read m ~cpu:0 ~vaddr:addr with
        | () -> Alcotest.fail "expected segfault"
        | exception Fault.Segfault _ -> ())
  in
  ()

let test_cow_fault_copies_and_preserves_original () =
  let _m =
    run_user (fun m mm ->
        ignore mm;
        let file = File.create m.Machine.frames ~name:"f" ~size_pages:2 in
        let original = File.frame_of_page file ~index:0 in
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:2
            ~backing:(Vma.File_private { file; offset = 0 })
            ()
        in
        (* Read maps the page-cache frame, write-protected + COW. *)
        Access.read m ~cpu:0 ~vaddr:addr;
        let pt = Mm_struct.page_table mm in
        let pte = Page_table.walk pt ~vpn:(Addr.vpn_of_addr addr) in
        check bool_t "mapped" true (Pte.present pte);
        check int_t "maps pagecache frame" original (Pte.pfn pte);
        check bool_t "cow" true (Pte.cow pte);
        Access.write m ~cpu:0 ~vaddr:addr;
        let pte = Page_table.walk pt ~vpn:(Addr.vpn_of_addr addr) in
        check bool_t "still mapped" true (Pte.present pte);
        check bool_t "private copy" true (Pte.pfn pte <> original);
        check bool_t "writable" true (Pte.writable pte);
        check bool_t "no longer cow" false (Pte.cow pte);
        check int_t "one cow break" 1 m.Machine.stats.Machine.cow_breaks)
  in
  ()

let test_cow_direct_write_needs_no_flush () =
  (* Writing an unmapped private page copies directly: no stale entry, no
     flush, no shootdown. *)
  let _m =
    run_user (fun m mm ->
        ignore mm;
        let file = File.create m.Machine.frames ~name:"f" ~size_pages:1 in
        ignore (File.frame_of_page file ~index:0);
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:1
            ~backing:(Vma.File_private { file; offset = 0 })
            ()
        in
        Access.write m ~cpu:0 ~vaddr:addr;
        check int_t "no cow break" 0 m.Machine.stats.Machine.cow_breaks;
        check int_t "no flush avoided either" 0 m.Machine.stats.Machine.cow_flush_avoided)
  in
  ()

let test_cow_opt_counts_avoided_flush () =
  let opts =
    {
      (Opts.map_paper (fun p -> { p with Opts.cow_avoid_flush = true }) (Opts.baseline ~safe:true))
      with
      Opts.spec_pte_recache_p = 1.0;
    }
  in
  (* Always re-cache the stale PTE speculatively: the dummy write must
     still leave no stale entry behind (the checker is watching). *)
  let _m =
    run_user ~opts (fun m mm ->
        ignore mm;
        let file = File.create m.Machine.frames ~name:"f" ~size_pages:4 in
        for i = 0 to 3 do
          ignore (File.frame_of_page file ~index:i)
        done;
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:4
            ~backing:(Vma.File_private { file; offset = 0 })
            ()
        in
        Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:false;
        Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
        check int_t "four avoided flushes" 4 m.Machine.stats.Machine.cow_flush_avoided;
        (* Re-read through the new mapping; checker verifies freshness. *)
        Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:false;
        check int_t "no violations" 0 (Checker.violation_count m.Machine.checker))
  in
  ()

let test_cow_opt_skipped_for_executable () =
  let opts =
    Opts.map_paper (fun p -> { p with Opts.cow_avoid_flush = true }) (Opts.baseline ~safe:true)
  in
  let _m =
    run_user ~opts (fun m mm ->
        ignore mm;
        let file = File.create m.Machine.frames ~name:"code" ~size_pages:1 in
        ignore (File.frame_of_page file ~index:0);
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:1 ~executable:true
            ~backing:(Vma.File_private { file; offset = 0 })
            ()
        in
        Access.read m ~cpu:0 ~vaddr:addr;
        Access.write m ~cpu:0 ~vaddr:addr;
        check int_t "one cow break" 1 m.Machine.stats.Machine.cow_breaks;
        (* The ITLB caveat: executable PTEs keep the INVLPG. *)
        check int_t "not avoided" 0 m.Machine.stats.Machine.cow_flush_avoided)
  in
  ()

let test_shared_file_dirty_writeback_cycle () =
  let _m =
    run_user (fun m mm ->
        ignore mm;
        let file = File.create m.Machine.frames ~name:"data" ~size_pages:8 in
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:8
            ~backing:(Vma.File_shared { file; offset = 0 })
            ()
        in
        (* Write three pages: they become dirty. *)
        List.iter
          (fun i -> Access.write m ~cpu:0 ~vaddr:(addr + (i * Addr.page_size)))
          [ 0; 3; 5 ];
        check int_t "three dirty" 3 (dirty_pages file);
        Syscall.msync m ~cpu:0 ~addr ~pages:8;
        check int_t "clean after msync" 0 (dirty_pages file);
        (* PTEs write-protected: the next write takes a write-notify fault
           and re-dirties. *)
        let faults = m.Machine.stats.Machine.faults in
        Access.write m ~cpu:0 ~vaddr:(addr + (3 * Addr.page_size));
        check bool_t "write-notify fault" true (m.Machine.stats.Machine.faults > faults);
        check int_t "dirty again" 1 (dirty_pages file))
  in
  ()

let test_fdatasync_equivalent () =
  let _m =
    run_user (fun m mm ->
        ignore mm;
        let file = File.create m.Machine.frames ~name:"db" ~size_pages:16 in
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:16
            ~backing:(Vma.File_shared { file; offset = 0 })
            ()
        in
        for i = 0 to 15 do
          Access.write m ~cpu:0 ~vaddr:(addr + (i * Addr.page_size))
        done;
        check int_t "all dirty" 16 (dirty_pages file);
        Syscall.fdatasync m ~cpu:0 ~file;
        check int_t "all clean" 0 (dirty_pages file))
  in
  ()

let test_mprotect_write_protect_then_fault () =
  let _m =
    run_user (fun m mm ->
        ignore mm;
        let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
        Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
        Syscall.mprotect m ~cpu:0 ~addr ~pages:2 ~writable:false;
        (* Read still fine, write segfaults (VMA now read-only). *)
        Access.read m ~cpu:0 ~vaddr:addr;
        (match Access.write m ~cpu:0 ~vaddr:addr with
        | () -> Alcotest.fail "expected segfault"
        | exception Fault.Segfault _ -> ());
        (* Grant back. *)
        Syscall.mprotect m ~cpu:0 ~addr ~pages:2 ~writable:true;
        Access.write m ~cpu:0 ~vaddr:addr)
  in
  ()

let test_syscalls_toggle_privilege () =
  let _m =
    run_user (fun m mm ->
        ignore mm;
        check bool_t "user before" true (Cpu.in_user (Machine.cpu m 0));
        ignore (Syscall.mmap m ~cpu:0 ~pages:1 () : int);
        check bool_t "user after" true (Cpu.in_user (Machine.cpu m 0)))
  in
  ()

let test_safe_mode_syscalls_cost_more () =
  let elapsed safe =
    let m = make ~opts:(Opts.baseline ~safe) () in
    let mm = Machine.new_mm m in
    let dt = ref 0 in
    Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
        let t0 = Machine.now m in
        ignore (Syscall.mmap m ~cpu:0 ~pages:1 () : int);
        dt := Machine.now m - t0);
    Kernel.run m;
    !dt
  in
  check bool_t "safe syscall dearer" true (elapsed true > elapsed false)

let test_munmap_partial_range () =
  let _m =
    run_user (fun m mm ->
        let addr = Syscall.mmap m ~cpu:0 ~pages:10 () in
        Access.touch_range m ~cpu:0 ~addr ~pages:10 ~write:true;
        (* Unmap the middle four pages. *)
        Syscall.munmap m ~cpu:0 ~addr:(addr + (3 * Addr.page_size)) ~pages:4;
        Access.read m ~cpu:0 ~vaddr:addr;
        Access.read m ~cpu:0 ~vaddr:(addr + (9 * Addr.page_size));
        (match Access.read m ~cpu:0 ~vaddr:(addr + (4 * Addr.page_size)) with
        | () -> Alcotest.fail "hole should fault"
        | exception Fault.Segfault _ -> ());
        check int_t "two vma pieces" 2 (Vma.Set.cardinal (Mm_struct.vmas mm)))
  in
  ()

let test_access_inserts_under_user_pcid () =
  let _m =
    run_user (fun m mm ->
        ignore mm;
        let addr = Syscall.mmap m ~cpu:0 ~pages:1 () in
        Access.write m ~cpu:0 ~vaddr:addr;
        let vpn = Addr.vpn_of_addr addr in
        check bool_t "user pcid entry" true
          (Tlb.mem (Cpu.tlb (Machine.cpu m 0)) ~pcid:(user_pcid_of m 0) ~vpn))
  in
  ()

(* --- the kernel brackets --- *)

exception Boom

(* Each bracket of [Kernel], as a way to run a body inside it on CPU 0. *)
let brackets =
  [
    ("syscall", fun m ~mm:_ body -> Kernel.in_syscall m ~cpu:0 body);
    ("kernel service", fun m ~mm:_ body -> Kernel.in_service m ~cpu:0 body);
    ( "mmap_sem, read",
      fun m ~mm body -> Kernel.in_mmap_sem m ~cpu:0 ~mm ~write:false ~batched:false body );
    ( "mmap_sem, write, batched",
      fun m ~mm body -> Kernel.in_mmap_sem m ~cpu:0 ~mm ~write:true ~batched:true body );
    ( "invalidation window",
      fun m ~mm body ->
        Kernel.in_window m ~cpu:0 (Kernel.range_info mm ~start_vpn:0 ~pages:1) body );
  ]

(* A body that raises leaves each bracket as it found it, run from a user
   thread: its exception escapes unchanged, mmap_sem is free (the thread
   can take it for writing), no window is open, batched mode is off and
   the CPU is back in user mode. *)
let test_brackets_body_raises () =
  List.iter
    (fun (name, bracket) ->
      let escaped = ref false and sem_free = ref false in
      let _m =
        run_user ~opts:(Opts.all_general ~safe:true) (fun m mm ->
            (match bracket m ~mm (fun () -> raise Boom) with
            | () -> ()
            | exception Boom -> escaped := true);
            check int_t (name ^ ": windows open") 0 (Checker.open_windows m.Machine.checker);
            check bool_t (name ^ ": batched mode") false
              (Machine.percpu m 0).Percpu.batched_mode;
            check bool_t (name ^ ": in user mode") true (Cpu.in_user (Machine.cpu m 0));
            Rwsem.down_write (Mm_struct.mmap_sem mm);
            Rwsem.up_write (Mm_struct.mmap_sem mm);
            sem_free := true)
      in
      check bool_t (name ^ ": same exception") true !escaped;
      check bool_t (name ^ ": mmap_sem free") true !sem_free)
    brackets

(* From kernel context the service bracket leaves the CPU in kernel mode. *)
let test_service_keeps_kernel_mode () =
  let m = make () in
  let in_user = ref true in
  Helpers.spawn_kernel m ~cpu:0 ~name:"kthread" (fun () ->
      (try Kernel.in_service m ~cpu:0 (fun () -> raise Boom) with Boom -> ());
      in_user := Cpu.in_user (Machine.cpu m 0));
  Kernel.run m;
  check bool_t "still in kernel mode" false !in_user

(* A clean-up that raises escapes as [Fun.Finally_raised], whether the body
   returned or raised: here the body releases mmap_sem itself, so the
   section's own release finds it not held. *)
let test_bracket_cleanup_raises () =
  List.iter
    (fun (what, write, body_raises) ->
      let got = ref "nothing escaped" in
      let _m =
        run_user (fun m mm ->
            let sem = Mm_struct.mmap_sem mm in
            match
              Kernel.in_mmap_sem m ~cpu:0 ~mm ~write ~batched:false (fun () ->
                  if write then Rwsem.up_write sem else Rwsem.up_read sem;
                  if body_raises then raise Boom)
            with
            | () -> ()
            | exception Fun.Finally_raised (Invalid_argument msg) -> got := msg
            | exception e -> got := Printexc.to_string e)
      in
      let expected = if write then "Rwsem.up_write: not held" else "Rwsem.up_read: not held" in
      check Alcotest.string what expected !got)
    [
      ("write, body returns", true, false);
      ("write, body raises", true, true);
      ("read, body raises", false, true);
    ]

let suite =
  [
    Alcotest.test_case "anon demand paging" `Quick test_anon_demand_paging;
    Alcotest.test_case "segfault on unmapped" `Quick test_segfault_on_unmapped;
    Alcotest.test_case "segfault on read-only vma write" `Quick test_segfault_on_write_to_readonly_vma;
    Alcotest.test_case "madvise frees anon frames" `Quick test_madvise_frees_anon_frames;
    Alcotest.test_case "munmap removes vma + tables" `Quick test_munmap_removes_vma_and_tables;
    Alcotest.test_case "cow fault copies" `Quick test_cow_fault_copies_and_preserves_original;
    Alcotest.test_case "direct private write: no flush" `Quick test_cow_direct_write_needs_no_flush;
    Alcotest.test_case "cow opt avoids flush (checker on)" `Quick test_cow_opt_counts_avoided_flush;
    Alcotest.test_case "cow opt skipped for executables" `Quick test_cow_opt_skipped_for_executable;
    Alcotest.test_case "msync writeback cycle" `Quick test_shared_file_dirty_writeback_cycle;
    Alcotest.test_case "fdatasync cleans file" `Quick test_fdatasync_equivalent;
    Alcotest.test_case "mprotect cycle" `Quick test_mprotect_write_protect_then_fault;
    Alcotest.test_case "syscalls toggle privilege" `Quick test_syscalls_toggle_privilege;
    Alcotest.test_case "safe syscalls cost more" `Quick test_safe_mode_syscalls_cost_more;
    Alcotest.test_case "munmap partial range splits vma" `Quick test_munmap_partial_range;
    Alcotest.test_case "accesses fill the user pcid" `Quick test_access_inserts_under_user_pcid;
    Alcotest.test_case "brackets: body exception cleans up" `Quick test_brackets_body_raises;
    Alcotest.test_case "brackets: service from kernel context" `Quick
      test_service_keeps_kernel_mode;
    Alcotest.test_case "brackets: clean-up exception is Finally_raised" `Quick
      test_bracket_cleanup_raises;
  ]
