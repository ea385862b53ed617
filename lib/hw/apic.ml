type t = {
  eng : Engine.t;
  topo : Topology.t;
  cost : Costs.t;
  cpus : Cpu.t array;
  cluster_of : int array; (* cpu -> x2APIC cluster id, precomputed *)
  cluster_members : int array array;
      (* cluster -> member cpus in ascending id order. With [cluster_of],
         marking target clusters in [scratch_clusters] and walking each
         present cluster's (≤16-entry) member table visits targets
         cluster-major, ascending cpu within a cluster, without
         allocating. Delivery events are inserted in that order, which
         same-tick tie-breaking makes observable. *)
  scratch_clusters : Cpuset.t;
  mutable irqs : Cpu.irq array; (* registry for tagged delivery, see below *)
  mutable n_irqs : int;
  mutable deliver_tag : int;
  mutable n_ipis : int;
  mutable n_icr : int;
  mutable meter : (int -> int -> unit) option;
      (* (distance rank, delivery cycles) per IPI; installed by the metrics
         layer, [None] costs one load+branch per send. *)
}

let create eng topo cost ~cpus =
  if Array.length cpus <> Topology.n_cpus topo then
    invalid_arg "Apic.create: cpu array does not match topology";
  let n = Topology.n_cpus topo in
  let cluster_of = Array.init n (fun cpu -> Topology.cluster_of topo cpu) in
  let n_clusters = 1 + Array.fold_left (fun acc c -> Stdlib.max acc c) 0 cluster_of in
  let counts = Array.make n_clusters 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) cluster_of;
  let cluster_members = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make n_clusters 0 in
  for cpu = 0 to n - 1 do
    let c = cluster_of.(cpu) in
    cluster_members.(c).(fill.(c)) <- cpu;
    fill.(c) <- fill.(c) + 1
  done;
  let t =
    {
      eng;
      topo;
      cost;
      cpus;
      cluster_of;
      cluster_members;
      scratch_clusters = Cpuset.create ~bits:n_clusters;
      irqs = [||];
      n_irqs = 0;
      deliver_tag = -1;
      n_ipis = 0;
      n_icr = 0;
      meter = None;
    }
  in
  (* Delivery events are pooled engine events carrying (target cpu, irq
     registry index) — no per-IPI closure or irq record. *)
  t.deliver_tag <-
    Engine.register_handler eng (fun target idx ->
        Cpu.post_irq t.cpus.(target) t.irqs.(idx));
  t

let set_delivery_meter t f = t.meter <- Some f

(* Register a long-lived irq record for [send_ipi_id]. IRQ records are
   immutable and may be pending on any number of CPUs at once, so one
   record per (machine, vector, handler) is enough for every shootdown. *)
let register_irq t irq =
  let n = t.n_irqs in
  if n = Array.length t.irqs then begin
    let bigger = Array.make (Stdlib.max 4 (2 * n)) irq in
    Array.blit t.irqs 0 bigger 0 n;
    t.irqs <- bigger
  end
  else t.irqs.(n) <- irq;
  t.n_irqs <- n + 1;
  n

(* Hierarchical x2APIC fan-out over a target cpuset: mark the clusters the
   targets span in the scratch cluster set, then walk present clusters in
   ascending id order, pricing one ICR write each, and deliver to that
   cluster's targets (membership test against the target set over the
   precomputed ascending member table). A broadcast to 1024 CPUs is 64
   ICR writes, not 1023 sequential unicasts, and a sparse multicast costs
   O(targets + present clusters * 16) with no per-send allocation. This
   runs entirely between engine events (nothing here yields), so the
   machine-wide scratch cannot be observed mid-update. *)
let send_ipi_id t ~from ~targets ~irq_id =
  if irq_id < 0 || irq_id >= t.n_irqs then
    invalid_arg "Apic.send_ipi_id: unregistered irq";
  if Cpuset.mem targets from then invalid_arg "Apic.send_ipi_id: self-IPI not supported";
  let sc = t.scratch_clusters in
  Cpuset.clear_all sc;
  let cluster_of = t.cluster_of in
  Cpuset.iter (fun cpu -> Cpuset.set sc cluster_of.(cpu)) targets;
  let send_cost = ref 0 in
  let cluster = ref (Cpuset.next sc 0) in
  while !cluster >= 0 do
    (* Each ICR write happens after the previous one; targets of later
       clusters see correspondingly later delivery. *)
    t.n_icr <- t.n_icr + 1;
    send_cost := !send_cost + t.cost.icr_write;
    let offset = !send_cost in
    let members = t.cluster_members.(!cluster) in
    for i = 0 to Array.length members - 1 do
      let target = members.(i) in
      if Cpuset.mem targets target then begin
        t.n_ipis <- t.n_ipis + 1;
        let d = Topology.distance t.topo from target in
        let latency = Costs.ipi_latency t.cost d in
        (* Delivery = queueing behind earlier ICR writes + flight time;
           this is what the target experiences from the first ICR
           write. *)
        (match t.meter with
        | Some f -> f (Topology.distance_rank d) (offset + latency)
        | None -> ());
        Engine.schedule_tag t.eng ~delay:(offset + latency) ~tag:t.deliver_tag
          ~a:target ~b:irq_id
      end
    done;
    cluster := Cpuset.next sc (!cluster + 1)
  done;
  !send_cost

let ipis_sent t = t.n_ipis
let icr_writes t = t.n_icr
