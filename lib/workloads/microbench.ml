type placement = Same_core | Same_socket | Cross_socket

type config = {
  opts : Opts.t;
  costs : Costs.t;
  placement : placement;
  pte_count : int;
  iterations : int;
  warmup : int;
  seed : int64;
  metering : bool;
}

let default_config ~opts ~placement ~pte_count =
  {
    opts;
    costs = Costs.default;
    placement;
    pte_count;
    iterations = 200;
    warmup = 20;
    seed = 7L;
    metering = false;
  }

type result = {
  initiator_mean : float;
  initiator_sd : float;
  responder_mean : float;
  responder_sd : float;
  shootdowns : int;
  engine_ops : int;
  metrics : Metrics.t;
}

let placement_label = function
  | Same_core -> "same-core"
  | Same_socket -> "same-socket"
  | Cross_socket -> "cross-socket"

let all_placements = [ Same_core; Same_socket; Cross_socket ]

(* Canonical value key over the whole config (opts and costs included via
   their own exhaustive keys): equal keys iff the runs are identical, so
   the bench harness may share one cell between experiments. *)
let config_key { opts; costs; placement; pte_count; iterations; warmup; seed; metering } =
  Printf.sprintf "micro|%s|%s|%s|pte=%d it=%d wu=%d seed=%Ld meter=%b" (Opts.key opts)
    (Costs.key costs) (placement_label placement) pte_count iterations warmup seed
    metering

let responder_cpu topo = function
  | Same_core -> begin
      match Topology.smt_sibling_of topo 0 with
      | Some sibling -> sibling
      | None -> invalid_arg "Microbench: machine has no SMT siblings"
    end
  | Same_socket -> 1
  | Cross_socket -> Topology.cores_per_socket topo

let run config =
  let m =
    Machine.create ~opts:config.opts ~costs:config.costs ~seed:config.seed
      ~metering:config.metering ()
  in
  let topo = m.Machine.topo in
  let initiator = 0 in
  let responder = responder_cpu topo config.placement in
  let mm = Machine.new_mm m in
  let stop = ref false in
  let stats = Stats.create () in
  (* Responder interruption accounting is sampled around the measured
     phase; dividing by the shootdown count gives per-event interruption,
     the quantity Figures 5b-8b report. *)
  let measured_interrupted = ref 0.0 in
  let measured_shootdowns = ref 0 in
  Kernel.spawn_user m ~cpu:responder ~mm ~name:"responder" (fun () ->
      let cpu_t = Machine.cpu m responder in
      Cpu.compute_until cpu_t ~quantum:100 ~chunk:100 (fun () -> !stop));
  Kernel.spawn_user m ~cpu:initiator ~mm ~name:"initiator" (fun () ->
      (* Give the responder time to load the address space. *)
      Machine.delay m 5_000;
      let pages = config.pte_count in
      let addr = Syscall.mmap m ~cpu:initiator ~pages () in
      let one_iteration record =
        Access.touch_range m ~cpu:initiator ~addr ~pages ~write:true;
        let t0 = Machine.now m in
        Syscall.madvise_dontneed m ~cpu:initiator ~addr ~pages;
        let dt = Machine.now m - t0 in
        if record then Stats.add stats (float_of_int dt)
      in
      for _ = 1 to config.warmup do
        one_iteration false
      done;
      let resp_cpu = Machine.cpu m responder in
      let interrupted0 = Cpu.interrupted_cycles resp_cpu in
      let shootdowns0 = m.Machine.stats.Machine.shootdowns in
      for _ = 1 to config.iterations do
        one_iteration true
      done;
      (* Let in-flight responder work drain before sampling. *)
      Machine.delay m 20_000;
      measured_interrupted :=
        float_of_int (Cpu.interrupted_cycles resp_cpu - interrupted0);
      measured_shootdowns := m.Machine.stats.Machine.shootdowns - shootdowns0;
      stop := true);
  Kernel.run m;
  let responder_mean =
    if !measured_shootdowns = 0 then 0.0
    else !measured_interrupted /. float_of_int !measured_shootdowns
  in
  Kernel.check_run m ~who:"Microbench";
  {
    initiator_mean = Stats.mean stats;
    initiator_sd = Stats.stddev stats;
    responder_mean;
    responder_sd = 0.0;
    shootdowns = !measured_shootdowns;
    engine_ops = Machine.engine_ops m;
    metrics = m.Machine.metrics;
  }
