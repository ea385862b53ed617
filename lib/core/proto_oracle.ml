(* The conservative oracle (differential-fuzzing reference): one synchronous
   whole-TLB flush on every CPU per request. No target filtering (lazy and
   batched CPUs are IPI'd too), no early ack, no local/remote overlap, no
   deferral of the user PCID — trivially correct by construction. *)

open Flush_core

(* The oracle responder: ignore generations and ranges, drop the whole TLB
   (every PCID, globals included) for every request. *)
let ipi_handler m ~me (_ : Cpu.t) =
  let pcpu = Machine.percpu m me in
  let tlb = Cpu.tlb (Machine.cpu m me) in
  Smp.drain_queue m ~me ~run:(fun cfd ->
      let info = cfd.Percpu.cfd_info in
      let t0 = Machine.now m in
      (* One charge run: the CR3 write, the flush and the ack write. *)
      let acking = ref false in
      Machine.chain_upto m 1 ~phases:3 (fun _ phase ->
          match phase with
          | 0 -> m.Machine.costs.Costs.cr3_write
          | 1 ->
              Tlb.flush_all tlb;
              if Machine.metering m then
                record_flush m
                  ~rank:(Machine.distance_rank m cfd.Percpu.cfd_initiator me)
                  ~kind:Machine.flush_kind_cr3 (Machine.now m - t0);
              (* The flush covered whatever a deferred user flush would have. *)
              pcpu.Percpu.pending_user <- Percpu.No_flush;
              Array.iter
                (fun slot ->
                  if slot.Percpu.slot_mm = info.Flush_info.mm_id then
                    slot.Percpu.gen_seen <-
                      Int.max slot.Percpu.gen_seen info.Flush_info.new_tlb_gen)
                pcpu.Percpu.asids;
              cfd.Percpu.cfd_executed <- true;
              acking := not cfd.Percpu.cfd_acked;
              if !acking then Smp.ack_write cfd ~me else 0
          | _ ->
              if !acking then Smp.ack_landed m ~me ~early:false cfd;
              0));
  if Cpu.irq_from_user (Machine.cpu m me) then flush_pending_user m ~cpu:me ~has_stack:true

let irq_id m = shootdown_irq m ipi_handler

let perform m ~from ~mm:_ (info : Flush_info.t) token =
  let stats = m.Machine.stats in
  let pcpu = Machine.percpu m from in
  let tlb = Cpu.tlb (Machine.cpu m from) in
  let t0 = Machine.now m in
  Machine.delay m m.Machine.costs.Costs.cr3_write;
  Tlb.flush_all tlb;
  if Machine.metering m then
    record_flush m ~rank:0 ~kind:Machine.flush_kind_cr3 (Machine.now m - t0);
  pcpu.Percpu.pending_user <- Percpu.No_flush;
  Array.iter
    (fun slot ->
      if slot.Percpu.slot_mm = info.Flush_info.mm_id then
        slot.Percpu.gen_seen <-
          Int.max slot.Percpu.gen_seen info.Flush_info.new_tlb_gen)
    pcpu.Percpu.asids;
  (* Flush-all broadcast: snapshot the machine's all-cpus set into the
     initiator's scratch instead of building (and filtering) per-broadcast
     lists — two word-array copies, no allocation. *)
  let targets = pcpu.Percpu.scratch_targets in
  Cpuset.copy_into ~dst:targets ~src:m.Machine.all_cpus;
  Cpuset.clear targets from;
  if Cpuset.is_empty targets then begin
    stats.Machine.local_only_flushes <- stats.Machine.local_only_flushes + 1;
    Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token
  end
  else begin
    stats.Machine.shootdowns <- stats.Machine.shootdowns + 1;
    let prep0 = Machine.now m in
    let cfds = Smp.enqueue_work m ~from ~targets ~info ~early_ack:false in
    Smp.send_ipis m ~from ~targets ~irq_id:(irq_id m);
    if Machine.metering m then record_prep m ~from ~targets (Machine.now m - prep0);
    Smp.wait_for_acks m ~from cfds ();
    Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token
  end

let backend =
  {
    Protocol.reference = true;
    perform;
    responder_pending =
      (fun m ~cpu -> not (Queue.is_empty (Machine.percpu m cpu).Percpu.csq));
    quiescent = (fun _ ~cpu:_ _ -> ());
  }
