(* Mirror drivers for the traced run: each workload body rebuilt from the
   public API (Machine.create, Kernel.spawn_user, Access, Syscall,
   Kernel.run) so spans can sit between machine construction and
   preparation ("setup", with "create" nested inside), the simulation
   ("run") and the result checks ("check"). A mirror must reproduce its
   library entry point field for field; the traced run compares every
   mirrored outcome against the library's and fails on any difference.
   Keep each body in step with the library function named above it. *)

type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let check_violations what m =
  match Checker.violations m.Machine.checker with
  | [] -> ()
  | v :: _ ->
      failwith
        (Format.asprintf "%s: TLB coherence violation: %a" what Checker.pp_violation v)

(* Mean thread-completion time, as Sysbench.run and Apache.run report it. *)
let mean_finish m finish_times =
  match finish_times with
  | [] -> Machine.now m
  | times -> List.fold_left ( + ) 0 times / List.length times

(* Microbench.run *)
let micro { span } (c : Microbench.config) =
  let m, stats, interrupted, shootdowns =
    span "setup" (fun () ->
        let m =
          span "create" (fun () ->
              Machine.create ~opts:c.Microbench.opts ~costs:c.Microbench.costs
                ~seed:c.Microbench.seed ~metering:c.Microbench.metering ())
        in
        let initiator = 0 in
        let responder = Microbench.responder_cpu m.Machine.topo c.Microbench.placement in
        let mm = Machine.new_mm m in
        let stop = ref false in
        let stats = Stats.create () in
        let interrupted = ref 0.0 in
        let shootdowns = ref 0 in
        Kernel.spawn_user m ~cpu:responder ~mm ~name:"responder" (fun () ->
            let cpu_t = Machine.cpu m responder in
            while not !stop do
              Cpu.compute cpu_t ~quantum:100 100
            done);
        Kernel.spawn_user m ~cpu:initiator ~mm ~name:"initiator" (fun () ->
            Machine.delay m 5_000;
            let pages = c.Microbench.pte_count in
            let addr = Syscall.mmap m ~cpu:initiator ~pages () in
            let one_iteration record =
              Access.touch_range m ~cpu:initiator ~addr ~pages ~write:true;
              let t0 = Machine.now m in
              Syscall.madvise_dontneed m ~cpu:initiator ~addr ~pages;
              let dt = Machine.now m - t0 in
              if record then Stats.add stats (float_of_int dt)
            in
            for _ = 1 to c.Microbench.warmup do
              one_iteration false
            done;
            let resp_cpu = Machine.cpu m responder in
            let interrupted0 = Cpu.interrupted_cycles resp_cpu in
            let shootdowns0 = m.Machine.stats.Machine.shootdowns in
            for _ = 1 to c.Microbench.iterations do
              one_iteration true
            done;
            Machine.delay m 20_000;
            interrupted := float_of_int (Cpu.interrupted_cycles resp_cpu - interrupted0);
            shootdowns := m.Machine.stats.Machine.shootdowns - shootdowns0;
            stop := true);
        (m, stats, interrupted, shootdowns))
  in
  span "run" (fun () -> Kernel.run m);
  span "check" (fun () ->
      check_violations "Microbench" m;
      let r =
        {
          Microbench.initiator_mean = Stats.mean stats;
          initiator_sd = Stats.stddev stats;
          responder_mean =
            (if !shootdowns = 0 then 0.0 else !interrupted /. float_of_int !shootdowns);
          responder_sd = 0.0;
          shootdowns = !shootdowns;
          engine_ops = Machine.engine_ops m;
          metrics = m.Machine.metrics;
        }
      in
      (Cells.micro_outcome c r, m))

(* A fresh shared file of [pages] pages mapped into [mm]; returns the file
   and the mapping's base address. *)
let map_file m mm ~name ~pages =
  let file = File.create m.Machine.frames ~name ~size_pages:pages in
  let start_vpn = Mm_struct.alloc_va_range mm ~pages () in
  Mm_struct.add_vma mm
    (Vma.make ~start_vpn ~pages ~backing:(Vma.File_shared { file; offset = 0 }) ());
  (file, Addr.addr_of_vpn start_vpn)

(* Sysbench's per-write bookkeeping cycles (not exported by the library). *)
let sysbench_think_cycles = 800

(* Sysbench.run *)
let sysbench { span } (c : Sysbench.config) =
  let m, total_ops, finish_times =
    span "setup" (fun () ->
        let m =
          span "create" (fun () ->
              Machine.create ~opts:c.Sysbench.opts ~seed:c.Sysbench.seed ())
        in
        let mm = Machine.new_mm m in
        let pages = c.Sysbench.file_pages in
        let file, base_addr = map_file m mm ~name:"sysbench.dat" ~pages in
        for index = 0 to pages - 1 do
          ignore (File.frame_of_page file ~index)
        done;
        let cpus = Sysbench.node_cpus m.Machine.topo c.Sysbench.threads in
        let total_ops = ref 0 in
        let finish_times = ref [] in
        List.iteri
          (fun i cpu ->
            let rng = Rng.split m.Machine.rng in
            let sync_offset =
              i * c.Sysbench.sync_every / Stdlib.max 1 c.Sysbench.threads
            in
            Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "sysbench%d" i) (fun () ->
                let cpu_t = Machine.cpu m cpu in
                for op = 1 to c.Sysbench.ops_per_thread do
                  let page = Rng.int rng pages in
                  Access.write m ~cpu ~vaddr:(base_addr + (page * Addr.page_size));
                  Cpu.compute cpu_t (sysbench_think_cycles + Rng.int rng 200);
                  incr total_ops;
                  if (op + sync_offset) mod c.Sysbench.sync_every = 0 then
                    Syscall.fdatasync m ~cpu ~file
                done;
                finish_times := Machine.now m :: !finish_times))
          cpus;
        (m, total_ops, finish_times))
  in
  span "run" (fun () -> Kernel.run m);
  span "check" (fun () ->
      check_violations "Sysbench" m;
      let cycles = mean_finish m !finish_times in
      let r =
        {
          Sysbench.ops = !total_ops;
          cycles;
          throughput =
            (if cycles = 0 then 0.0
             else float_of_int !total_ops *. 1000.0 /. float_of_int cycles);
          shootdowns = m.Machine.stats.Machine.shootdowns;
          full_flush_fallbacks = m.Machine.stats.Machine.full_flush_fallbacks;
          batched_deferrals = m.Machine.stats.Machine.batched_deferrals;
          engine_ops = Machine.engine_ops m;
        }
      in
      (Cells.sysbench_outcome r, m))

(* Apache.run *)
let apache { span } (c : Apache.config) =
  let m, done_count, finish_times =
    span "setup" (fun () ->
        let m =
          span "create" (fun () ->
              Machine.create ~opts:c.Apache.opts ~seed:c.Apache.seed ())
        in
        let mm = Machine.new_mm m in
        let pages = c.Apache.file_pages in
        let files =
          Array.init c.Apache.n_files (fun i ->
              let f =
                File.create m.Machine.frames
                  ~name:(Printf.sprintf "htdocs/page%d.html" i)
                  ~size_pages:pages
              in
              for index = 0 to pages - 1 do
                ignore (File.frame_of_page f ~index)
              done;
              f)
        in
        let done_count = ref 0 in
        let finish_times = ref [] in
        let per_worker = c.Apache.requests / c.Apache.cores in
        for cpu = 0 to c.Apache.cores - 1 do
          let rng = Rng.split m.Machine.rng in
          Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "worker%d" cpu) (fun () ->
              let cpu_t = Machine.cpu m cpu in
              for _ = 1 to per_worker do
                let file = files.(Rng.int rng c.Apache.n_files) in
                let addr =
                  Syscall.mmap m ~cpu ~pages ~writable:false
                    ~backing:(Vma.File_shared { file; offset = 0 })
                    ()
                in
                Access.touch_range m ~cpu ~addr ~pages ~write:false;
                Cpu.compute cpu_t c.Apache.request_work;
                Syscall.munmap m ~cpu ~addr ~pages;
                incr done_count
              done;
              finish_times := Machine.now m :: !finish_times)
        done;
        (m, done_count, finish_times))
  in
  span "run" (fun () -> Kernel.run m);
  span "check" (fun () ->
      check_violations "Apache" m;
      let cycles = mean_finish m !finish_times in
      let r =
        {
          Apache.requests_done = !done_count;
          cycles;
          throughput =
            (if cycles = 0 then 0.0
             else float_of_int !done_count *. 1_000_000.0 /. float_of_int cycles);
          shootdowns = m.Machine.stats.Machine.shootdowns;
          engine_ops = Machine.engine_ops m;
        }
      in
      (Cells.apache_outcome c r, m))

(* Bigmachine's per-op bookkeeping cycles and tenant placement (not
   exported by the library). *)
let big_think_cycles = 600

let assign_cpus topo ~tenants ~threads_per_tenant =
  let sockets = Topology.sockets topo in
  let cores = Topology.cores_per_socket topo in
  let physical = sockets * cores in
  let cursor = Array.make sockets 0 in
  Array.init tenants (fun t ->
      Array.init threads_per_tenant (fun i ->
          let s = ((2 * t) + (i mod 2)) mod sockets in
          let k = cursor.(s) in
          cursor.(s) <- k + 1;
          let core = k mod cores in
          let smt_thread = k / cores in
          if smt_thread >= Topology.smt topo then
            invalid_arg "Bigmachine: socket oversubscribed";
          (smt_thread * physical) + (s * cores) + core))

(* Bigmachine.run *)
let big { span } (c : Bigmachine.config) =
  let m, total_ops, churn_cycles, churns =
    span "setup" (fun () ->
        let topo =
          Topology.create ~sockets:c.Bigmachine.sockets
            ~cores_per_socket:c.Bigmachine.cores_per_socket ~smt:c.Bigmachine.smt
        in
        let m =
          span "create" (fun () ->
              Machine.create ~topo ~opts:c.Bigmachine.opts ~seed:c.Bigmachine.seed ())
        in
        let placement =
          assign_cpus topo ~tenants:c.Bigmachine.tenants
            ~threads_per_tenant:c.Bigmachine.threads_per_tenant
        in
        let total_ops = ref 0 in
        let churn_cycles = ref 0 in
        let churns = ref 0 in
        let arena_pages = c.Bigmachine.churn_pages in
        Array.iteri
          (fun t cpus ->
            let mm = Machine.new_mm m in
            let _file, base_addr =
              map_file m mm ~name:(Printf.sprintf "tenant%d.dat" t)
                ~pages:c.Bigmachine.file_pages
            in
            Array.iteri
              (fun i cpu ->
                let rng = Rng.split m.Machine.rng in
                Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "tenant%d.%d" t i)
                  (fun () ->
                    let cpu_t = Machine.cpu m cpu in
                    let arena = ref (Syscall.mmap m ~cpu ~pages:arena_pages ()) in
                    Access.touch_range m ~cpu ~addr:!arena ~pages:arena_pages ~write:true;
                    for op = 1 to c.Bigmachine.ops_per_thread do
                      let page = Rng.int rng c.Bigmachine.file_pages in
                      Access.write m ~cpu ~vaddr:(base_addr + (page * Addr.page_size));
                      Cpu.compute cpu_t (big_think_cycles + Rng.int rng 100);
                      incr total_ops;
                      if (op + i) mod c.Bigmachine.churn_every = 0 then begin
                        let t0 = Machine.now m in
                        Syscall.madvise_dontneed m ~cpu ~addr:!arena ~pages:arena_pages;
                        churn_cycles := !churn_cycles + (Machine.now m - t0);
                        incr churns;
                        Syscall.munmap m ~cpu ~addr:!arena ~pages:arena_pages;
                        arena := Syscall.mmap m ~cpu ~pages:arena_pages ();
                        Access.touch_range m ~cpu ~addr:!arena ~pages:arena_pages
                          ~write:true
                      end
                    done))
              cpus)
          placement;
        (m, total_ops, churn_cycles, churns))
  in
  span "run" (fun () -> Kernel.run m);
  span "check" (fun () ->
      check_violations "Bigmachine" m;
      let shootdowns = m.Machine.stats.Machine.shootdowns in
      let r =
        {
          Bigmachine.n_cpus = Topology.n_cpus m.Machine.topo;
          threads = c.Bigmachine.tenants * c.Bigmachine.threads_per_tenant;
          ops = !total_ops;
          shootdowns;
          ipis = Apic.ipis_sent m.Machine.apic;
          icr_writes = Apic.icr_writes m.Machine.apic;
          churn_cycles = !churn_cycles;
          churns = !churns;
          cycles_per_shootdown =
            (if shootdowns = 0 then 0.0
             else float_of_int !churn_cycles /. float_of_int shootdowns);
          engine_ops = Machine.engine_ops m;
        }
      in
      (Cells.big_outcome c r, m))

(* Fuzz.check_seed without shrinking: the machines live inside
   Fuzz.execute, so machine construction is timed on twins built with
   execute's own parameters, outside the cell's spans. *)
let fuzz { span } seed =
  let p = span "gen" (fun () -> Fuzz.gen_program ~max_ops:Cells.fuzz_max_ops seed) in
  let exec name opts = span name (fun () -> Fuzz.execute ~opts p) in
  let optimized = exec "exec" (Fuzz.program_opts p) in
  let oracle = exec "oracle" (Opts.oracle ~safe:p.Fuzz.p_safe) in
  span "check" (fun () ->
      let agree =
        Option.is_none optimized.Fuzz.xr_crash
        && Option.is_none oracle.Fuzz.xr_crash
        && List.is_empty optimized.Fuzz.xr_violations
        && List.is_empty optimized.Fuzz.xr_invariants
        && Array.for_all2 String.equal optimized.Fuzz.xr_obs oracle.Fuzz.xr_obs
        && List.equal String.equal optimized.Fuzz.xr_final oracle.Fuzz.xr_final
      in
      Cells.fuzz_outcome p (if agree then [] else [ "backend and oracle runs differ" ]))

(* The twin machines for [fuzz]'s construction timing. *)
let fuzz_twins (p : Fuzz.program) =
  let topo =
    Topology.create ~sockets:p.Fuzz.p_sockets ~cores_per_socket:p.Fuzz.p_cores
      ~smt:p.Fuzz.p_smt
  in
  List.iter
    (fun opts ->
      ignore
        (Machine.create ~topo ~frames:4096 ~seed:(Int64.of_int p.Fuzz.p_seed)
           ~tlb_capacity:p.Fuzz.p_tlb_capacity ~opts ()))
    [ Fuzz.program_opts p; Opts.oracle ~safe:p.Fuzz.p_safe ]
