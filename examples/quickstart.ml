(* Quickstart: build a machine, run one TLB shootdown under the baseline
   protocol and under the paper's optimized protocol, and print the traced
   timelines side by side.

     dune exec examples/quickstart.exe
*)

let run_one ~label opts =
  Printf.printf "\n=== %s (%s) ===\n" label (Format.asprintf "%a" Opts.pp opts);
  let m = Machine.create ~opts ~seed:1L () in
  Trace.enable m.Machine.trace;
  let mm = Machine.new_mm m in
  let stop = ref false in

  (* A responder thread busy-waits on the other socket, sharing the
     address space — exactly the microbenchmark setup of paper §5.1. *)
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"responder" (fun () ->
      let cpu = Machine.cpu m 14 in
      Cpu.compute_until cpu ~quantum:100 ~chunk:100 (fun () -> !stop));

  Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
      Machine.delay m 2_000;
      (* Map four pages, fault them in, then madvise(DONTNEED) them away:
         the PTE teardown triggers the shootdown we want to watch. *)
      let addr = Syscall.mmap m ~cpu:0 ~pages:4 () in
      Access.touch_range m ~cpu:0 ~addr ~pages:4 ~write:true;
      Trace.clear m.Machine.trace;
      let t0 = Machine.now m in
      Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:4;
      Printf.printf "madvise(DONTNEED, 4 pages) took %d cycles on the initiator\n"
        (Machine.now m - t0);
      Machine.delay m 10_000;
      stop := true);
  Kernel.run m;

  print_endline "timeline (cycles | cpu | event):";
  Format.printf "%a@?" Trace.pp m.Machine.trace;
  let responder = Machine.cpu m 14 in
  Printf.printf "responder was interrupted for %d cycles across %d IRQ(s)\n"
    (Cpu.interrupted_cycles responder)
    (Cpu.irqs_handled responder);
  Printf.printf "coherence checker: %d checks, %d benign races, %d violations\n"
    (Checker.checks m.Machine.checker)
    (Checker.benign_races m.Machine.checker)
    (Checker.violation_count m.Machine.checker)

let () =
  print_endline "Reproduction of \"Don't shoot down TLB shootdowns!\" (EuroSys'20).";
  print_endline "One madvise-triggered shootdown, baseline vs optimized protocol:";
  run_one ~label:"stock Linux 5.2.8 protocol" (Opts.baseline ~safe:true);
  run_one ~label:"all four general techniques (paper SS3)" (Opts.all_general ~safe:true)
