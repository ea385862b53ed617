(* Big-machine scaling workload (DESIGN.md §12): the same multi-tenant
   sysbench-plus-reclaim churn run at 56, 256, 512 and 1024 logical CPUs.

   Every size runs an IDENTICAL amount of work — the same tenant count,
   threads per tenant, ops per thread and churn cadence — and every tenant
   is confined to one socket pair, so the distance profile of its
   shootdowns does not change with machine size either. The only thing
   that grows is the machine around the work: the cpumasks get wider, the
   cache-line sharer sets get taller, the APIC has more clusters. A
   per-shootdown cost that stays flat across the column is therefore
   direct evidence that the shootdown hot paths are O(active CPUs), not
   O(machine size) — the property the cpuset/hierarchical-IPI layer
   exists to provide, and the property bench/perf_gate.ml gates on the
   "bigmachine" family rows. *)

type config = {
  opts : Opts.t;
  sockets : int;
  cores_per_socket : int;
  smt : int;
  tenants : int;
  threads_per_tenant : int;
  ops_per_thread : int;
  churn_every : int;  (* madvise_dontneed cadence, in ops *)
  churn_pages : int;  (* private pages unmapped per churn *)
  file_pages : int;
  seed : int64;
}

let sizes = [ 56; 256; 512; 1024 ]

let topo_of_cpus = function
  | 56 -> (2, 14, 2) (* the paper's machine *)
  | 256 -> (4, 32, 2)
  | 512 -> (4, 64, 2)
  | 1024 -> (8, 64, 2)
  | n -> invalid_arg (Printf.sprintf "Bigmachine: no topology for %d CPUs" n)

let default_config ~opts ~n_cpus =
  let sockets, cores_per_socket, smt = topo_of_cpus n_cpus in
  {
    opts;
    sockets;
    cores_per_socket;
    smt;
    tenants = 6;
    threads_per_tenant = 8;
    ops_per_thread = 120;
    churn_every = 12;
    churn_pages = 16;
    file_pages = 512;
    seed = 37L;
  }

(* The one quick-mode shaping every harness must agree on: the bench
   bigmachine column, the shootout --workloads comparison and the tests
   all need value-identical configs for the memo to share their cells. *)
let quick_shape cfg = { cfg with ops_per_thread = 24; churn_every = 8; churn_pages = 8 }

(* Canonical value key over the whole config: equal keys iff the runs are
   identical, so the bench harness may share one cell between experiments. *)
let config_key c =
  Printf.sprintf
    "bigmachine|%s|topo=%dx%dx%d tenants=%d thr=%d ops=%d churn=%d/%d pages=%d \
     seed=%Ld"
    (Opts.key c.opts) c.sockets c.cores_per_socket c.smt c.tenants
    c.threads_per_tenant c.ops_per_thread c.churn_every c.churn_pages c.file_pages
    c.seed

type result = {
  n_cpus : int;
  threads : int;
  ops : int;
  shootdowns : int;
  ipis : int;
  icr_writes : int;
  churn_cycles : int;  (* simulated cycles inside madvise_dontneed calls *)
  churns : int;
  cycles_per_shootdown : float;  (* deterministic: simulated time, not wall *)
  engine_ops : int;
}

(* Pin tenant [t]'s threads to the socket pair ((2t) mod S, (2t+1) mod S),
   filling cores before SMT siblings, with one global per-socket cursor so
   tenants sharing a socket never collide on a CPU. Constant spread: a
   tenant's shootdowns cover the same socket distances at every machine
   size, so scaling rows compare like with like. *)
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

(* Per-op bookkeeping the modelled client does besides the store itself. *)
let think_cycles = 600

let run config =
  let topo =
    Topology.create ~sockets:config.sockets ~cores_per_socket:config.cores_per_socket
      ~smt:config.smt
  in
  let m = Machine.create ~topo ~opts:config.opts ~seed:config.seed () in
  let placement =
    assign_cpus topo ~tenants:config.tenants
      ~threads_per_tenant:config.threads_per_tenant
  in
  let total_ops = ref 0 in
  let churn_cycles = ref 0 in
  let churns = ref 0 in
  Array.iteri
    (fun t cpus ->
      (* One mm per tenant: its cpumask is the sparse set of this tenant's
         CPUs, never the whole machine. *)
      let mm = Machine.new_mm m in
      let file =
        File.create m.Machine.frames
          ~name:(Printf.sprintf "tenant%d.dat" t)
          ~size_pages:config.file_pages
      in
      let start_vpn = Mm_struct.alloc_va_range mm ~pages:config.file_pages () in
      Mm_struct.add_vma mm
        (Vma.make ~start_vpn ~pages:config.file_pages
           ~backing:(Vma.File_shared { file; offset = 0 })
           ());
      let base_addr = Addr.addr_of_vpn start_vpn in
      Array.iteri
        (fun i cpu ->
          let rng = Rng.split m.Machine.rng in
          Kernel.spawn_user m ~cpu ~mm
            ~name:(Printf.sprintf "tenant%d.%d" t i)
            (fun () ->
              let cpu_t = Machine.cpu m cpu in
              (* Private reclaim arena, remapped after every churn. *)
              let arena =
                ref (Syscall.mmap m ~cpu ~pages:config.churn_pages ())
              in
              Access.touch_range m ~cpu ~addr:!arena ~pages:config.churn_pages
                ~write:true;
              for op = 1 to config.ops_per_thread do
                let page = Rng.int rng config.file_pages in
                Access.write m ~cpu ~vaddr:(base_addr + (page * Addr.page_size));
                Cpu.compute cpu_t (think_cycles + Rng.int rng 100);
                incr total_ops;
                (* Stagger churn by thread index: in-phase madvise storms
                   across tenants would serialize on nothing real. *)
                if (op + i) mod config.churn_every = 0 then begin
                  let t0 = Machine.now m in
                  Syscall.madvise_dontneed m ~cpu ~addr:!arena
                    ~pages:config.churn_pages;
                  churn_cycles := !churn_cycles + (Machine.now m - t0);
                  incr churns;
                  Syscall.munmap m ~cpu ~addr:!arena ~pages:config.churn_pages;
                  arena := Syscall.mmap m ~cpu ~pages:config.churn_pages ();
                  Access.touch_range m ~cpu ~addr:!arena ~pages:config.churn_pages
                    ~write:true
                end
              done))
        cpus)
    placement;
  Kernel.run m;
  Kernel.check_run m ~who:"Bigmachine";
  let shootdowns = m.Machine.stats.Machine.shootdowns in
  {
    n_cpus = Topology.n_cpus topo;
    threads = config.tenants * config.threads_per_tenant;
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
