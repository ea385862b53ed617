(* The paper's optimized Linux protocol — Figure 1 (baseline) / Figure 3
   (optimized), every Table-1 technique gated by its Opts knob. This is the
   protocol the paper studies; the other backends exist to compare against
   it (and to cross-check it in the differential fuzzer). *)

open Flush_core

let knobs m = Opts.knobs m.Machine.opts

(* The responder's work on one request, as phases of the drain run: the
   handler entry (with the §3.2 early ack write), the flush's steps, then
   the late ack write and its landing. *)
let rec work m cfd phase =
  let me = cfd.Percpu.cfd_target in
  let f = irq_flush m ~cpu:me in
  if phase = 0 then begin
    if Machine.tracing m then
      Machine.trace_event m ~cpu:me
        (Trace.Ipi_begin
           {
             seq = cfd.Percpu.cfd_seq;
             initiator = cfd.Percpu.cfd_initiator;
             early_ack = cfd.Percpu.cfd_early_ack;
           });
    if cfd.Percpu.cfd_early_ack then begin
      (* §3.2: no user mapping can be used from inside this handler, so
         acknowledge before flushing — unless page tables are freed,
         which the initiator already encoded in cfd_early_ack. An NMI
         could still preempt us between the ack and the flush: flag the
         window so nmi_uaccess_okay refuses user accesses. *)
      (Machine.percpu m me).Percpu.inflight_flush <- true;
      Smp.ack_write m ~me cfd
    end
    else 0
  end
  else if phase = 1 then begin
    Smp.ack_landed m ~me cfd;
    let info = cfd.Percpu.cfd_info in
    let d = flush_begin m f ~cpu:me ~user:(default_user_policy m info) info in
    if d >= 0 then d else flushed m cfd f
  end
  else if flushing f then begin
    let d = flush_step m ~cpu:me f in
    if d >= 0 then d else flushed m cfd f
  end
  else begin
    Smp.ack_landed m ~me cfd;
    -1
  end

and flushed m cfd f =
  let me = cfd.Percpu.cfd_target in
  if Machine.metering m then
    record_flush m
      ~rank:(Machine.distance_rank m cfd.Percpu.cfd_initiator me)
      ~kind:(kind_of_result f.Percpu.fl_result)
      (Machine.now m - f.Percpu.fl_t0);
  cfd.Percpu.cfd_executed <- true;
  (Machine.percpu m me).Percpu.inflight_flush <- false;
  if cfd.Percpu.cfd_early_ack then -1 else Smp.ack_write m ~me cfd

(* The shootdown IPI handler run by responder CPUs: a drain of the call
   queue. *)
let irq_id m = shootdown_irq m (fun m -> Smp.drain_queue m ~work:(work m))

(* Initiator-side local flush. Returns the list of user VPNs left for the
   §3.4/§3.1 interplay to flush during the ack wait (empty otherwise). *)
let initiator_local_flush m ~from ~has_remote_targets (info : Flush_info.t) =
  let opts = m.Machine.opts in
  let hybrid =
    opts.Opts.safe && opts.Opts.in_context_flush && (knobs m).Opts.concurrent_flush
    && has_remote_targets
    && (not info.Flush_info.full)
    && (not info.Flush_info.freed_tables)
    && Flush_info.nr_entries info <= opts.Opts.full_flush_threshold
  in
  let user = if hybrid then Skip else default_user_policy m info in
  let result = initiator_flush m ~from ~user info in
  if hybrid && result = `Ranged then Flush_info.vpns info else []

(* Select remote targets into the initiator's scratch cpuset, paying one
   line read per candidate and filtering it once the read lands. The mm's
   cpumask is snapshotted first (the candidate reads take time, and a
   remote context switch may edit the live mask under us), then filtered
   in place: the walk may clear the member it visits. *)
let select_targets m ~from ~mm (info : Flush_info.t) =
  let batching = (knobs m).Opts.userspace_batching and stats = m.Machine.stats in
  let targets = snapshot_targets m ~from (Mm_struct.cpuset mm) in
  Process.chain_cpus m.Machine.engine ~lead:0 targets ~phases:2 (fun c phase ->
      let p = Machine.percpu m c in
      if phase = 0 then Smp.read_remote_tlb_state m ~from ~target:c
      else begin
        if p.Percpu.lazy_mode then begin
          (* Lazy-TLB CPU: it will sync generations before resuming user. *)
          stats.Machine.ipis_skipped_lazy <- stats.Machine.ipis_skipped_lazy + 1;
          Cpuset.clear targets c
        end
        else if batching && p.Percpu.batched_mode && not info.Flush_info.freed_tables
        then begin
          (* §4.2: the CPU is inside a batching syscall and will sync at its
             mmap_sem-release barrier; no IPI needed. *)
          stats.Machine.ipis_skipped_batched <- stats.Machine.ipis_skipped_batched + 1;
          Cpuset.clear targets c
        end;
        0
      end);
  targets

(* Enqueue [info] to [targets] and IPI them. Prep = target selection
   ([sel_dt]) + CFD enqueue + ICR writes, i.e. every initiator-side cycle
   before the IPIs are in flight; attributed like the ack wait to the
   farthest target. *)
let send_remote m ~from ~targets ~early_ack ~sel_dt info =
  let t0 = Machine.now m in
  Smp.enqueue_work m ~from ~targets ~info ~early_ack;
  Smp.send_ipis m ~from ~targets ~irq_id:(irq_id m);
  if Machine.metering m then
    Smp.record_prep m ~from ~targets (sel_dt + (Machine.now m - t0))

(* One complete shootdown for [info], generation already bumped; true
   when it sent IPIs. [~local_flush:false] is the §4.1 CoW round, whose
   caller has already replaced the initiator's flush: without a local
   flush, the concurrent and baseline orders are the same sequence. *)
let round m ~from ~mm ~local_flush (info : Flush_info.t) =
  let opts = m.Machine.opts and costs = m.Machine.costs and stats = m.Machine.stats in
  let knobs = knobs m in
  let sel0 = Machine.now m in
  let targets = select_targets m ~from ~mm info in
  let sel_dt = Machine.now m - sel0 in
  if Cpuset.is_empty targets then begin
    if local_flush then
      ignore (initiator_local_flush m ~from ~has_remote_targets:false info);
    false
  end
  else begin
    (* FreeBSD comparator: one machine-wide shootdown at a time. *)
    if knobs.Opts.serialized then begin
      Machine.delay m m.Machine.costs.Costs.lock_uncontended;
      Rwsem.down_write m.Machine.ipi_mutex
    end;
    let early_ack = knobs.Opts.early_ack && not info.Flush_info.freed_tables in
    if local_flush && knobs.Opts.concurrent_flush then begin
      (* loc begin: concurrent-flushes *)
      (* §3.1: send first; the local flush overlaps IPI delivery. *)
      send_remote m ~from ~targets ~early_ack ~sel_dt info;
      let leftover = ref (initiator_local_flush m ~from ~has_remote_targets:true info) in
      let pcpu = Machine.percpu m from in
      let tlb = Cpu.tlb (Machine.cpu m from) in
      let user_pcid = Percpu.user_pcid pcpu.Percpu.curr_asid in
      let while_waiting () =
        (* §3.4 interplay: burn the wait on user-PTE INVPCIDs until the
           first ack lands, then defer the rest to kernel exit. *)
        match !leftover with
        | [] -> ()
        | vpn :: rest ->
            if not (Smp.any_acked m ~from ~targets) then begin
              Machine.delay m costs.Costs.invpcid_single;
              Tlb.invpcid_addr tlb ~pcid:user_pcid ~vpn;
              leftover := rest
            end
      in
      (* Same condition [while_waiting] acts on, minus the action: lets
         the ack wait skip resuming us on poll ticks with nothing to do. *)
      let waiting_work () =
        (not (List.is_empty !leftover)) && not (Smp.any_acked m ~from ~targets)
      in
      Smp.wait_for_acks_working m ~from ~targets ~while_waiting ~waiting_work;
      (match !leftover with
      | [] -> ()
      | vpn :: _ as rest ->
          stats.Machine.in_context_deferrals <- stats.Machine.in_context_deferrals + 1;
          let deferred =
            Flush_info.ranged ~mm_id:info.Flush_info.mm_id ~start_vpn:vpn
              ~pages:(List.length rest) ~stride:info.Flush_info.stride ~freed_tables:false
              ~new_tlb_gen:info.Flush_info.new_tlb_gen
          in
          Percpu.defer_user_flush pcpu deferred ~threshold:opts.Opts.full_flush_threshold)
      (* loc end: concurrent-flushes *)
    end
    else begin
      (* Baseline (Figure 1): local flush strictly before the IPIs. *)
      if local_flush then
        ignore (initiator_local_flush m ~from ~has_remote_targets:false info);
      send_remote m ~from ~targets ~early_ack ~sel_dt info;
      Smp.wait_for_acks m ~from ~targets
    end;
    if knobs.Opts.serialized then Rwsem.up_write m.Machine.ipi_mutex;
    true
  end

let create m =
  {
    Protocol.reference = false;
    perform = (fun ~from ~mm info -> round m ~from ~mm ~local_flush:true info);
    responder_pending = (fun ~cpu -> Smp.csd_pending m ~cpu);
    quiescent = (fun ~cpu fail -> Smp.csd_quiescent m ~cpu fail);
  }
