(* The conservative oracle (differential-fuzzing reference): one synchronous
   whole-TLB flush on every CPU per request. No target filtering (lazy and
   batched CPUs are IPI'd too), no early ack, no local/remote overlap, no
   deferral of the user PCID — trivially correct by construction. *)

open Flush_core

(* After a whole-TLB flush every ASID slot caching [info]'s mm has seen
   its generation. *)
let catch_up pcpu (info : Flush_info.t) =
  let asids = pcpu.Percpu.asids in
  for i = 0 to Array.length asids - 1 do
    let slot = asids.(i) in
    if slot.Percpu.slot_mm = info.Flush_info.mm_id then
      slot.Percpu.gen_seen <- Int.max slot.Percpu.gen_seen info.Flush_info.new_tlb_gen
  done

(* The oracle responder: ignore generations and ranges, drop the whole TLB
   (every PCID, globals included) for every request. Its work is three
   phases of the drain run: the CR3 write, then the flush and the ack
   write, then the ack landing. *)
let work m cfd phase =
  let me = cfd.Percpu.cfd_target in
  match phase with
  | 0 ->
      (irq_flush m ~cpu:me).Percpu.fl_t0 <- Machine.now m;
      m.Machine.costs.Costs.cr3_write
  | 1 ->
      let pcpu = Machine.percpu m me in
      Tlb.flush_all (Cpu.tlb (Machine.cpu m me));
      if Machine.metering m then
        record_flush m
          ~rank:(Machine.distance_rank m cfd.Percpu.cfd_initiator me)
          ~kind:Machine.flush_kind_cr3
          (Machine.now m - (irq_flush m ~cpu:me).Percpu.fl_t0);
      (* The flush covered whatever a deferred user flush would have. *)
      pcpu.Percpu.pending_user <- Percpu.No_flush;
      catch_up pcpu cfd.Percpu.cfd_info;
      cfd.Percpu.cfd_executed <- true;
      Smp.ack_write m ~me cfd
  | _ ->
      Smp.ack_landed m ~me cfd;
      -1

let irq_id m = shootdown_irq m (fun m -> Smp.drain_queue m ~work:(work m))

let perform m ~from (info : Flush_info.t) =
  let pcpu = Machine.percpu m from in
  let tlb = Cpu.tlb (Machine.cpu m from) in
  let t0 = Machine.now m in
  Machine.delay m m.Machine.costs.Costs.cr3_write;
  Tlb.flush_all tlb;
  if Machine.metering m then
    record_flush m ~rank:0 ~kind:Machine.flush_kind_cr3 (Machine.now m - t0);
  pcpu.Percpu.pending_user <- Percpu.No_flush;
  catch_up pcpu info;
  (* Flush-all broadcast: every other CPU, unfiltered. *)
  let targets = snapshot_targets m ~from m.Machine.all_cpus in
  let remote = not (Cpuset.is_empty targets) in
  if remote then begin
    let prep0 = Machine.now m in
    Smp.enqueue_work m ~from ~targets ~info ~early_ack:false;
    Smp.send_ipis m ~from ~targets ~irq_id:(irq_id m);
    if Machine.metering m then Smp.record_prep m ~from ~targets (Machine.now m - prep0);
    Smp.wait_for_acks m ~from ~targets
  end;
  remote

let create m =
  {
    Protocol.reference = true;
    perform = (fun ~from ~mm:_ info -> perform m ~from info);
    responder_pending = (fun ~cpu -> Smp.csd_pending m ~cpu);
    quiescent = (fun ~cpu fail -> Smp.csd_quiescent m ~cpu fail);
  }
