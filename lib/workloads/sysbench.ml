type config = {
  opts : Opts.t;
  threads : int;
  ops_per_thread : int;
  sync_every : int;
  file_pages : int;
  seed : int64;
}

let default_config ~opts ~threads =
  { opts; threads; ops_per_thread = 400; sync_every = 48; file_pages = 4096; seed = 23L }

(* Canonical value key over the whole config: equal keys iff the runs are
   identical, so the bench harness may share one cell between experiments
   (fig10's points double as ablation C/E rows at the same scale). *)
let config_key { opts; threads; ops_per_thread; sync_every; file_pages; seed } =
  Printf.sprintf "sysbench|%s|t=%d ops=%d sync=%d pages=%d seed=%Ld" (Opts.key opts)
    threads ops_per_thread sync_every file_pages seed

type result = {
  ops : int;
  cycles : int;
  throughput : float;
  shootdowns : int;
  full_flush_fallbacks : int;
  batched_deferrals : int;
  engine_ops : int;
}

let node_cpus topo n =
  let cores = Topology.cpus_of_socket topo 0 in
  let siblings = List.filter_map (fun c -> Topology.smt_sibling_of topo c) cores in
  let pool = cores @ siblings in
  if n > List.length pool then
    invalid_arg
      (Printf.sprintf "Sysbench: %d threads exceed the %d CPUs of one node" n
         (List.length pool));
  List.filteri (fun i _ -> i < n) pool

(* Per-write bookkeeping sysbench does besides the store itself (request
   accounting, RNG, statistics). *)
let think_cycles = 800

let run config =
  let m = Machine.create ~opts:config.opts ~seed:config.seed () in
  let mm = Machine.new_mm m in
  let file =
    File.create m.Machine.frames ~name:"sysbench.dat" ~size_pages:config.file_pages
  in
  (* Warm the page cache (sysbench's prepare phase). *)
  for index = 0 to config.file_pages - 1 do
    ignore (File.frame_of_page file ~index)
  done;
  (* The shared mapping all threads write through. *)
  let start_vpn = Mm_struct.alloc_va_range mm ~pages:config.file_pages () in
  Mm_struct.add_vma mm
    (Vma.make ~start_vpn ~pages:config.file_pages
       ~backing:(Vma.File_shared { file; offset = 0 })
       ());
  let base_addr = Addr.addr_of_vpn start_vpn in
  let cpus = node_cpus m.Machine.topo config.threads in
  let total_ops = ref 0 in
  let finish_times = ref [] in
  List.iteri
    (fun i cpu ->
      let rng = Rng.split m.Machine.rng in
      (* Stagger each thread's sync points; in-phase syncs would create
         artificial convoys the real benchmark does not exhibit. *)
      let sync_offset = i * config.sync_every / Stdlib.max 1 config.threads in
      Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "sysbench%d" i) (fun () ->
          let cpu_t = Machine.cpu m cpu in
          for op = 1 to config.ops_per_thread do
            let page = Rng.int rng config.file_pages in
            Access.write m ~cpu ~vaddr:(base_addr + (page * Addr.page_size));
            Cpu.compute cpu_t (think_cycles + Rng.int rng 200);
            incr total_ops;
            if (op + sync_offset) mod config.sync_every = 0 then
              Syscall.fdatasync m ~cpu ~file
          done;
          finish_times := Machine.now m :: !finish_times))
    cpus;
  Kernel.run m;
  Kernel.check_run m ~who:"Sysbench";
  (* Mean thread-completion time: less straggler-sensitive than makespan,
     like reporting sysbench's per-thread event rate. *)
  let cycles =
    match !finish_times with
    | [] -> Machine.now m
    | times -> List.fold_left ( + ) 0 times / List.length times
  in
  {
    ops = !total_ops;
    cycles;
    throughput = (if cycles = 0 then 0.0 else float_of_int !total_ops *. 1000.0 /. float_of_int cycles);
    shootdowns = m.Machine.stats.Machine.shootdowns;
    full_flush_fallbacks = m.Machine.stats.Machine.full_flush_fallbacks;
    batched_deferrals = m.Machine.stats.Machine.batched_deferrals;
    engine_ops = Machine.engine_ops m;
  }
