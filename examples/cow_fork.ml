(* fork() + copy-on-write under sharing (paper §4.1): a parent address
   space is forked — every private page becomes write-protected and
   frame-shared — and both sides then write, breaking COW page by page.
   With [cow_avoid_flush] the local INVLPG on each break is replaced by an
   atomic dummy write; the speculative stale-PTE re-caching probability is
   forced to 1.0 and the coherence checker stays clean regardless.

     dune exec examples/cow_fork.exe
*)

let run ~label opts =
  let opts = { opts with Opts.spec_pte_recache_p = 1.0 } in
  let m = Machine.create ~opts ~seed:12L () in
  let parent = Machine.new_mm m in
  let pages = 48 in
  let write_cycles = Stats.create () in
  let shared_after_fork = ref 0 in

  Kernel.spawn_user m ~cpu:0 ~mm:parent ~name:"parent" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      (* fork: both sides now share every frame, write-protected. *)
      let child = Fork.fork m ~cpu:0 in
      let vpn0 = Addr.vpn_of_addr addr in
      let pte = Page_table.walk (Mm_struct.page_table parent) ~vpn:vpn0 in
      if Pte.present pte then
        shared_after_fork := Frame_alloc.refcount m.Machine.frames (Pte.pfn pte);
      (* The child reads the shared pages from another core while the
         parent writes them all, COW-breaking one page per write. *)
      let stop = ref false in
      Kernel.spawn_user m ~cpu:14 ~mm:child ~name:"child" (fun () ->
          let cpu_t = Machine.cpu m 14 in
          while not !stop do
            Access.touch_range m ~cpu:14 ~addr ~pages ~write:false;
            Cpu.compute cpu_t 500
          done);
      Machine.delay m 3_000;
      for i = 0 to pages - 1 do
        let t0 = Machine.now m in
        Access.write m ~cpu:0 ~vaddr:(addr + (i * Addr.page_size));
        Stats.add write_cycles (float_of_int (Machine.now m - t0))
      done;
      Machine.delay m 20_000;
      stop := true);
  Kernel.run m;
  let s = m.Machine.stats in
  Printf.printf
    "%-24s refs-after-fork=%d cow-breaks=%-3d flushes-avoided=%-3d mean-write=%-7s \
     violations=%d\n"
    label !shared_after_fork s.Machine.cow_breaks s.Machine.cow_flush_avoided
    (Report.cycles (Stats.mean write_cycles))
    (Checker.violation_count m.Machine.checker)

let () =
  print_endline
    "fork() then parent writes every page while the child reads (spec re-cache = 1.0).";
  print_endline "Each parent write breaks COW; the child keeps the original frames.\n";
  run ~label:"baseline safe" (Opts.baseline ~safe:true);
  run ~label:"+cow avoidance safe"
    (Opts.map_paper (fun p -> { p with Opts.cow_avoid_flush = true }) (Opts.baseline ~safe:true));
  run ~label:"all six safe" (Opts.all ~safe:true);
  run ~label:"baseline unsafe" (Opts.baseline ~safe:false);
  run ~label:"all six unsafe" (Opts.all ~safe:false)
