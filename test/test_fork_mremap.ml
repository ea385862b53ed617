(* fork() with COW sharing (frame refcounting) and mremap. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.all ~safe:true) () = Machine.create ~opts ~seed:61L ()

let pfn_of mm ~vpn =
  let pte = Page_table.walk (Mm_struct.page_table mm) ~vpn in
  if Pte.present pte then Some (Pte.pfn pte) else None

let test_fork_shares_frames_cow () =
  let m = make () in
  let parent = Machine.new_mm m in
  let child_box = ref None in
  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"parent" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
      let vpn = Addr.vpn_of_addr addr in
      let pfn0 = Option.get (pfn_of parent ~vpn) in
      check int_t "exclusive before fork" 1 (Frame_alloc.refcount m.Machine.frames pfn0);
      let child = Fork.fork m ~cpu:0 in
      child_box := Some (child, addr);
      (* Shared, write-protected, COW on both sides. *)
      check int_t "two references" 2 (Frame_alloc.refcount m.Machine.frames pfn0);
      check bool_t "same frame in child" true (pfn_of child ~vpn = Some pfn0);
      let pte = Page_table.walk (Mm_struct.page_table parent) ~vpn in
      check bool_t "parent still mapped" true (Pte.present pte);
      check bool_t "parent write-protected" false (Pte.writable pte);
      check bool_t "parent cow" true (Pte.cow pte);
      (* Parent write breaks COW: parent moves to a private copy, child
         keeps the original. *)
      Access.write m ~cpu:0 ~vaddr:addr;
      let pfn_parent = Option.get (pfn_of parent ~vpn) in
      check bool_t "parent got a copy" true (pfn_parent <> pfn0);
      check bool_t "child kept original" true (pfn_of child ~vpn = Some pfn0);
      check int_t "original now single-ref" 1 (Frame_alloc.refcount m.Machine.frames pfn0));
  Kernel.run m;
  check bool_t "cow breaks happened" true (m.Machine.stats.Machine.cow_breaks > 0);
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_fork_child_runs_and_cows () =
  let m = make () in
  let parent = Machine.new_mm m in
  let pages = 4 in
  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"parent" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      let vpn = Addr.vpn_of_addr addr in
      let original = Option.get (pfn_of parent ~vpn) in
      let child = Fork.fork m ~cpu:0 in
      (* Run the child on another CPU; its writes COW privately. *)
      Kernel.spawn_user m ~cpu:14 ~mm:child ~name:"child" (fun () ->
          Access.touch_range m ~cpu:14 ~addr ~pages ~write:false;
          Access.write m ~cpu:14 ~vaddr:addr;
          check bool_t "child got its own copy" true
            (pfn_of child ~vpn <> Some original);
          check bool_t "parent unaffected" true (pfn_of parent ~vpn = Some original)));
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_fork_flushes_running_sibling () =
  (* A sibling thread of the parent keeps writing while fork write-protects:
     every write after the protect must fault (COW), never slip through a
     stale writable translation. *)
  let m = make () in
  let parent = Machine.new_mm m in
  let pages = 8 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm:parent ~name:"sibling" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:true;
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"parent" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 3_000;
      let child = Fork.fork m ~cpu:0 in
      ignore child;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check int_t "sibling never wrote through stale translation" 0
    (Checker.violation_count m.Machine.checker)

let test_fork_unmap_both_releases_once () =
  let m = make () in
  let parent = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"parent" (fun () ->
      let before = Frame_alloc.allocated m.Machine.frames in
      let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
      let child = Fork.fork m ~cpu:0 in
      (* Unmap in the parent: frames survive on the child's references. *)
      Syscall.munmap m ~cpu:0 ~addr ~pages:4;
      check int_t "frames alive via child" (before + 4)
        (Frame_alloc.allocated m.Machine.frames);
      (* Tear down the child's mappings directly (it never ran). *)
      ignore
        (Page_table.unmap_range (Mm_struct.page_table child)
           ~vpn:(Addr.vpn_of_addr addr) ~pages:4 ~free_tables:true
           ~f:(fun _ pte -> Frame_alloc.free m.Machine.frames (Pte.pfn pte))
          : bool);
      check int_t "all frames released exactly once" before
        (Frame_alloc.allocated m.Machine.frames));
  Kernel.run m

let test_fork_shared_file_stays_shared () =
  let m = make () in
  let parent = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"parent" (fun () ->
      let file = File.create m.Machine.frames ~name:"log" ~size_pages:2 in
      let addr =
        Syscall.mmap m ~cpu:0 ~pages:2 ~backing:(Vma.File_shared { file; offset = 0 }) ()
      in
      Access.write m ~cpu:0 ~vaddr:addr;
      let vpn = Addr.vpn_of_addr addr in
      let child = Fork.fork m ~cpu:0 in
      (* Shared file pages: same frame, still writable in both, no COW. *)
      let pte = Page_table.walk (Mm_struct.page_table child) ~vpn in
      check bool_t "child still mapped" true (Pte.present pte);
      check bool_t "child writable" true (Pte.writable pte);
      check bool_t "no cow" false (Pte.cow pte);
      check bool_t "same frame" true (pfn_of parent ~vpn = Some (Pte.pfn pte));
      (* Parent still writable too (no protect for shared mappings). *)
      Access.write m ~cpu:0 ~vaddr:addr);
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

(* --- mremap --- *)

let test_mremap_moves_without_copy () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
      let old_pfn = Option.get (pfn_of mm ~vpn:(Addr.vpn_of_addr addr)) in
      let allocated = Frame_alloc.allocated m.Machine.frames in
      let new_addr = Syscall.mremap m ~cpu:0 ~addr ~pages:4 in
      check bool_t "moved" true (new_addr <> addr);
      check int_t "no frames copied" allocated (Frame_alloc.allocated m.Machine.frames);
      check bool_t "same frame at new address" true
        (pfn_of mm ~vpn:(Addr.vpn_of_addr new_addr) = Some old_pfn);
      (* The old range is gone: access faults. *)
      (match Access.read m ~cpu:0 ~vaddr:addr with
      | () -> Alcotest.fail "old range should segfault"
      | exception Fault.Segfault _ -> ());
      (* The new range is live. *)
      Access.touch_range m ~cpu:0 ~addr:new_addr ~pages:4 ~write:true);
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_mremap_under_concurrent_reader () =
  let m = make () in
  let mm = Machine.new_mm m in
  let pages = 4 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        (try Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false
         with Fault.Segfault _ -> ());
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"remapper" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 3_000;
      let current = ref addr in
      for _ = 1 to 5 do
        current := Syscall.mremap m ~cpu:0 ~addr:!current ~pages;
        addr_box := !current
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check int_t "reader never used a moved translation" 0
    (Checker.violation_count m.Machine.checker)

let suite =
  [
    Alcotest.test_case "fork: COW sharing + break" `Quick test_fork_shares_frames_cow;
    Alcotest.test_case "fork: child runs and cows" `Quick test_fork_child_runs_and_cows;
    Alcotest.test_case "fork: flushes running sibling" `Quick test_fork_flushes_running_sibling;
    Alcotest.test_case "fork: release-once accounting" `Quick test_fork_unmap_both_releases_once;
    Alcotest.test_case "fork: shared file stays shared" `Quick test_fork_shared_file_stays_shared;
    Alcotest.test_case "mremap: moves without copy" `Quick test_mremap_moves_without_copy;
    Alcotest.test_case "mremap: safe under reader" `Quick test_mremap_under_concurrent_reader;
  ]
