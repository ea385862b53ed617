(* KSM-style deduplication: merge mechanics, COW un-merging, and coherence
   under concurrent access. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let make ?(opts = Opts.all ~safe:true) () = Machine.create ~opts ~seed:67L ()

let pfn_of mm ~vpn =
  let pte = Page_table.walk (Mm_struct.page_table mm) ~vpn in
  if Pte.present pte then Some (Pte.pfn pte) else None

let test_merge_shares_frame () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      let keep = Addr.vpn_of_addr addr and dup = Addr.vpn_of_addr addr + 1 in
      let frames_before = Frame_alloc.allocated m.Machine.frames in
      check int_t "merged" 1 (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:keep ~pages:2);
      check bool_t "same frame" true (pfn_of mm ~vpn:keep = pfn_of mm ~vpn:dup);
      check int_t "one frame released" (frames_before - 1)
        (Frame_alloc.allocated m.Machine.frames);
      check int_t "shared frame has two refs" 2
        (Frame_alloc.refcount m.Machine.frames (Option.get (pfn_of mm ~vpn:keep)));
      (* Both sides are COW write-protected. *)
      let pte = Page_table.walk (Mm_struct.page_table mm) ~vpn:keep in
      check bool_t "keep mapped" true (Pte.present pte);
      check bool_t "keep protected" false (Pte.writable pte));
  Kernel.run m;
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_write_unmerges_via_cow () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
      let keep = Addr.vpn_of_addr addr and dup = Addr.vpn_of_addr addr + 1 in
      ignore (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:keep ~pages:2 : int);
      let shared = Option.get (pfn_of mm ~vpn:keep) in
      (* Writing the duplicate un-merges it through the ordinary COW break
         (§4.1's path, local flush avoided). *)
      Access.write m ~cpu:0 ~vaddr:(addr + Addr.page_size);
      check bool_t "dup got private copy" true (pfn_of mm ~vpn:dup <> Some shared);
      check bool_t "keep still on shared frame" true (pfn_of mm ~vpn:keep = Some shared);
      check int_t "shared frame back to one ref" 1
        (Frame_alloc.refcount m.Machine.frames shared));
  Kernel.run m;
  check bool_t "cow flush avoidance kicked in" true
    (m.Machine.stats.Machine.cow_flush_avoided > 0);
  check int_t "no violations" 0 (Checker.violation_count m.Machine.checker)

let test_dedup_range_counts () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:8 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:8 ~write:true;
      let before = Frame_alloc.allocated m.Machine.frames in
      let merged =
        Ksm.dedup_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages:8
      in
      check int_t "seven duplicates merged" 7 merged;
      check int_t "seven frames reclaimed" (before - 7)
        (Frame_alloc.allocated m.Machine.frames));
  Kernel.run m

let test_merge_skips_unsuitable () =
  let m = make () in
  let mm = Machine.new_mm m in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"t" (fun () ->
      let file = File.create m.Machine.frames ~name:"f" ~size_pages:1 in
      let anon = Syscall.mmap m ~cpu:0 ~pages:1 () in
      Access.write m ~cpu:0 ~vaddr:anon;
      let keep = Addr.vpn_of_addr anon in
      (* Nothing is mapped past the one anonymous page yet. *)
      check int_t "unmapped skipped" 0 (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:keep ~pages:2);
      let filed =
        Syscall.mmap m ~cpu:0 ~pages:1 ~backing:(Vma.File_shared { file; offset = 0 }) ()
      in
      Access.write m ~cpu:0 ~vaddr:filed;
      let dup = Addr.vpn_of_addr filed in
      check bool_t "file page above the anonymous one" true (dup > keep);
      check int_t "file page skipped" 0
        (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:keep ~pages:(dup - keep + 1)));
  Kernel.run m

let test_dedup_under_concurrent_writer_safe () =
  (* A writer keeps dirtying pages while the dedup daemon merges them: the
     write-protect shootdowns must force the writer through COW faults,
     never letting a write land on a merged frame unnoticed. *)
  let m = make () in
  let mm = Machine.new_mm m in
  let pages = 8 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"writer" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      let rng = Rng.split m.Machine.rng in
      while not !stop do
        let p = Rng.int rng pages in
        Access.write m ~cpu:14 ~vaddr:(!addr_box + (p * Addr.page_size));
        Cpu.compute cpu_t ~quantum:100 300
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"ksmd" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      Machine.delay m 3_000;
      for _ = 1 to 5 do
        ignore (Ksm.dedup_range m ~cpu:0 ~mm ~vpn:(Addr.vpn_of_addr addr) ~pages);
        Machine.delay m 5_000
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  check int_t "dedup under writes is coherent" 0
    (Checker.violation_count m.Machine.checker)

let suite =
  [
    Alcotest.test_case "merge shares frame" `Quick test_merge_shares_frame;
    Alcotest.test_case "write un-merges via cow" `Quick test_write_unmerges_via_cow;
    Alcotest.test_case "dedup_range counts" `Quick test_dedup_range_counts;
    Alcotest.test_case "merge skips unsuitable pages" `Quick test_merge_skips_unsuitable;
    Alcotest.test_case "dedup under writer safe" `Quick test_dedup_under_concurrent_writer_safe;
  ]
