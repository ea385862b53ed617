type stats = {
  mutable shootdowns : int;
  mutable local_only_flushes : int;
  mutable ipis_skipped_lazy : int;
  mutable ipis_skipped_batched : int;
  mutable flush_requests_skipped : int;
  mutable full_flush_fallbacks : int;
  mutable batched_deferrals : int;
  mutable cow_flush_avoided : int;
  mutable in_context_deferrals : int;
  mutable faults : int;
  mutable cow_breaks : int;
}

(* --- shootdown phase metrics (DESIGN.md §10) ---

   Handles into the machine's Metrics registry, registered in a fixed
   order so every machine — metered or not — exposes the same series shape
   and sharded aggregation merges identically-shaped registries.
   Per-distance arrays are indexed by Topology.distance_rank; [flush] is
   rank-major over (rank, kind). *)

type phases = {
  prep : Metrics.series array;  (** initiator prep, by farthest-target rank *)
  ipi : Metrics.series array;  (** IPI delivery, by sender->target rank *)
  flush : Metrics.series array;  (** flush execution, (rank, kind) rank-major *)
  ack : Metrics.series array;  (** initiator ack wait, by farthest-target rank *)
  line : Metrics.series array;  (** cacheline access cost, by source rank *)
  tlb_drop_full : Metrics.series;  (** entries dropped per full TLB flush *)
  tlb_drop_pcid : Metrics.series;  (** entries dropped per PCID drop *)
}

let flush_kind_invlpg = 0
let flush_kind_cr3 = 1
let flush_kind_deferred = 2
let flush_kind_skipped = 3
let n_flush_kinds = 4
let flush_kind_labels = [| "invlpg"; "cr3"; "deferred"; "skipped" |]
let flush_index ~rank ~kind = (rank * n_flush_kinds) + kind

type t = {
  engine : Engine.t;
  topo : Topology.t;
  costs : Costs.t;
  opts : Opts.t;
  registry : Cache.registry;
  frames : Frame_alloc.t;
  trace : Trace.t;
  rng : Rng.t;
  cpus : Cpu.t array;
  apic : Apic.t;
  percpu : Percpu.t array;
  mms : (int, Mm_struct.t) Hashtbl.t;
  all_cpus : Cpuset.t;
      (* every cpu id; the oracle's flush-all broadcast snapshots this into
         the initiator's scratch instead of materializing target lists.
         Never mutated after create. *)
  mutable next_mm_id : int;
  mutable next_ipi_seq : int;
  mutable proto_irq_id : int;
      (* Apic registry id for the backend's long-lived shootdown irq record,
         created by the backend at first use (-1 = not yet); per machine so
         IPI delivery never allocates an irq record or closure. One machine
         runs one backend for its lifetime (Opts.protocol is part of the
         memoization key), so one slot, which §4.1's CoW round reuses. *)
  mutable backend : Protocol.t;
      (* the shootdown backend instance, with whatever state it owns;
         [Protocol.unset] until Shootdown builds it at first use *)
  checker : Checker.t;
  ipi_mutex : Rwsem.t;
  stats : stats;
  metrics : Metrics.t;
  phases : phases;
}

let fresh_stats () =
  {
    shootdowns = 0;
    local_only_flushes = 0;
    ipis_skipped_lazy = 0;
    ipis_skipped_batched = 0;
    flush_requests_skipped = 0;
    full_flush_fallbacks = 0;
    batched_deferrals = 0;
    cow_flush_avoided = 0;
    in_context_deferrals = 0;
    faults = 0;
    cow_breaks = 0;
  }

(* Histogram ranges are sized from Costs.default magnitudes; out-of-range
   samples are counted explicitly by the histograms, so an unusual Costs.t
   degrades to visible overflow counts, never silent corruption. *)
let register_phases metrics =
  let ranks = Topology.n_distance_ranks in
  let dist r = ("distance", Topology.distance_label (Topology.distance_of_rank r)) in
  let by_rank name ~lo ~hi ~buckets =
    Array.init ranks (fun r ->
        Metrics.series metrics ~name ~labels:[ dist r ] ~lo ~hi ~buckets ())
  in
  let prep = by_rank "shootdown_prep_cycles" ~lo:0.0 ~hi:8000.0 ~buckets:20 in
  let ipi = by_rank "ipi_delivery_cycles" ~lo:0.0 ~hi:2000.0 ~buckets:20 in
  let flush =
    Array.init
      (ranks * n_flush_kinds)
      (fun i ->
        let r = i / n_flush_kinds and k = i mod n_flush_kinds in
        Metrics.series metrics ~name:"flush_exec_cycles"
          ~labels:[ dist r; ("kind", flush_kind_labels.(k)) ]
          ~lo:0.0 ~hi:10000.0 ~buckets:20 ())
  in
  let ack = by_rank "ack_wait_cycles" ~lo:0.0 ~hi:20000.0 ~buckets:20 in
  let line = by_rank "cacheline_transfer_cycles" ~lo:0.0 ~hi:800.0 ~buckets:16 in
  let drop kind =
    Metrics.series metrics ~name:"tlb_flush_drop_entries"
      ~labels:[ ("flush", kind) ] ~lo:0.0 ~hi:1600.0 ~buckets:16 ()
  in
  {
    prep;
    ipi;
    flush;
    ack;
    line;
    tlb_drop_full = drop "full";
    tlb_drop_pcid = drop "pcid";
  }

(* Unmetered machines record nothing, so they all share one disabled
   registry instead of building about 30 series each (fuzz-diff builds a
   thousand machines per pass). It is built at module initialization, not
   with [lazy]: forcing one lazy value from two domains at once raises. *)
let unmetered_metrics = Metrics.create ~enabled:false ()
let unmetered_phases = register_phases unmetered_metrics

let create ?(topo = Topology.paper_machine) ?(costs = Costs.default)
    ?(frames = 262144) ?(seed = 42L) ?tlb_capacity
    ?(metering = false) ~opts () =
  let engine = Engine.create () in
  let n = Topology.n_cpus topo in
  let registry = Cache.create_registry topo costs in
  let new_cpu id =
    Cpu.create engine topo costs ~id ~safe:opts.Opts.safe ?tlb_capacity ()
  in
  (* CPU 0 and its per-CPU state are built first. An array of more than 256
     elements is allocated in the major heap, and OCaml 5 empties the minor
     heap first when its initial value is young. [cpus] pays that once, with
     almost nothing else built yet; [percpu] then starts from an old value.
     Started from a young one (as [Array.map] over [cpus] would), it would
     empty the minor heap again after every CPU is built and promote them
     all: about 1 MiB of garbage per 1024-CPU machine, which makes the
     peak heap differ by seed. *)
  let cpu0 = new_cpu 0 in
  let percpu0 = Percpu.create cpu0 registry in
  let cpus = Array.init n (fun id -> if id = 0 then cpu0 else new_cpu id) in
  let percpu =
    Array.init n (fun id -> if id = 0 then percpu0 else Percpu.create cpus.(id) registry)
  in
  let apic = Apic.create engine topo costs ~cpus in
  let metrics = if metering then Metrics.create () else unmetered_metrics in
  let phases = if metering then register_phases metrics else unmetered_phases in
  (* The hw hooks are installed only on metered machines: an unmetered
     machine's cache/IPI/TLB hot paths keep their None-check fast path. *)
  if metering then begin
    Apic.set_delivery_meter apic (fun rank cycles ->
        Metrics.record_cycles phases.ipi.(rank) cycles);
    Cache.set_transfer_meter registry (fun rank cost ->
        Metrics.record_cycles phases.line.(rank) cost);
    Array.iter
      (fun cpu ->
        Tlb.set_flush_meter (Cpu.tlb cpu) (fun full dropped ->
            Metrics.record_cycles
              (if full then phases.tlb_drop_full else phases.tlb_drop_pcid)
              dropped))
      cpus
  end;
  {
    engine;
    topo;
    costs;
    opts;
    registry;
    frames = Frame_alloc.create ~frames;
    trace = Trace.create engine;
    rng = Rng.create ~seed;
    cpus;
    apic;
    percpu;
    mms = Hashtbl.create 16;
    all_cpus =
      (let s = Cpuset.create ~bits:n in
       for c = 0 to n - 1 do
         Cpuset.set s c
       done;
       s);
    next_mm_id = 1;
    next_ipi_seq = 0;
    proto_irq_id = -1;
    backend = Protocol.unset;
    checker = Checker.create ();
    ipi_mutex = Rwsem.create engine;
    stats = fresh_stats ();
    metrics;
    phases;
  }

let new_mm t =
  let id = t.next_mm_id in
  t.next_mm_id <- id + 1;
  let mm =
    Mm_struct.create ~engine:t.engine ~registry:t.registry ~frames:t.frames
      ~n_cpus:(Array.length t.cpus) ~id
  in
  Hashtbl.replace t.mms id mm;
  mm

let mm_by_id t id = Hashtbl.find_opt t.mms id
let cpu t i = t.cpus.(i)
let percpu t i = t.percpu.(i)
let n_cpus t = Array.length t.cpus
let now t = Engine.now t.engine
let delay t cycles = Process.delay t.engine cycles
let charge_read t line ~by = delay t (Cache.read line ~by)
let charge_write t line ~by = delay t (Cache.write line ~by)
let charge_atomic t line ~by = delay t (Cache.atomic line ~by)
let run t = Engine.run t.engine

let engine_ops t = Engine.ops t.engine

let next_ipi_seq t =
  t.next_ipi_seq <- t.next_ipi_seq + 1;
  t.next_ipi_seq

(* OCaml evaluates variant arguments eagerly, so hot call sites must guard
   event *construction* — `if Machine.tracing m then Machine.trace_event …` —
   or they allocate the record even when tracing is off. *)
let[@inline] tracing t = Trace.enabled t.trace

(* Same guard discipline as [tracing]: hot call sites check this before
   computing ranks or durations, so an unmetered machine pays one
   load+branch per site and allocates nothing. *)
let[@inline] metering t = Metrics.enabled t.metrics

let[@inline] distance_rank t a b =
  Topology.distance_rank (Topology.distance t.topo a b)

let trace_event t ~cpu ev = if Trace.enabled t.trace then Trace.event t.trace ~cpu ev

(* Checker window plus its trace event, emitted together so the analysis
   layer sees exactly the windows the checker reasons with. *)
let begin_window t ~cpu ~mm_id ~first_vpn ~end_vpn =
  let token = Checker.begin_invalidation t.checker ~mm_id ~first_vpn ~end_vpn in
  if tracing t then begin
    let full = end_vpn = Checker.full_end in
    trace_event t ~cpu
      (Trace.Flush_start
         {
           window = Checker.token_id token;
           mm_id;
           start_vpn = first_vpn;
           span = (if full then 0 else end_vpn - first_vpn);
           full;
         })
  end;
  token

let end_window t ~cpu ~mm_id token =
  Checker.end_invalidation t.checker token;
  if tracing t then
    trace_event t ~cpu (Trace.Flush_done { window = Checker.token_id token; mm_id })

(* IPI conservation: every IPI the APIC sent reached a CPU and was handled
   there exactly once. A dispatch path that drops an IRQ leaves it pending
   or unhandled; one that runs an IRQ twice handles more than was sent. *)
let ipi_invariants t add_failure =
  let handled = Array.fold_left (fun n cpu -> n + Cpu.irqs_handled cpu) 0 t.cpus in
  let sent = Apic.ipis_sent t.apic in
  if handled <> sent then
    add_failure (Printf.sprintf "%d IPI(s) sent but %d handled at quiescence" sent handled);
  Array.iteri
    (fun i cpu ->
      let n = Cpu.pending_irqs cpu in
      if n > 0 then
        add_failure (Printf.sprintf "cpu%d: %d IRQ(s) pending at quiescence" i n);
      if Cpu.draining cpu then
        add_failure (Printf.sprintf "cpu%d: IRQ drain still running at quiescence" i))
    t.cpus
