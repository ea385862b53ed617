(* Charmos-style per-CPU ring-buffer queue (SNIPPETS.md §2-3): the initiator
   posts (mm, vpn) invalidation entries into each target's bounded ring —
   collapsing to a whole-TLB flush-all when a ring overflows — kicks the
   targets, and spins for their ack generations with an initial-spin /
   backoff-multiplier / resend retry ladder. Responders drain their ring
   FIFO and publish the queue generation they have drained up to.

   Correctness stance: responders invalidate posted translations in every
   ASID slot caching the mm but do not advance gen_seen (a ring drain can
   observe a partially posted range, so no generation is provably complete
   from the responder's view); the switch-in check_and_sync_tlb covers the
   bookkeeping gap with a conservative full flush, exactly as it covers
   CPUs the paper protocol never IPIs. The initiator's ack wait ends only
   when every target has drained past this shootdown's queue generation, so
   the checker window still closes with no stale translation machine-wide. *)

open Flush_core

(* Charmos retry ladder constants (scaled to simulator cycles). *)
let initial_spin = 2000
let max_retries = 6
let backoff_mult = 4

let ipi_handler m ~me (_ : Cpu.t) =
  let p = Machine.percpu m me in
  let tlb = Cpu.tlb (Machine.cpu m me) in
  let costs = m.Machine.costs in
  Machine.charge_read m p.Percpu.line_queue ~by:me;
  (* Drain until a check sees the ring empty; the ack store happens in the
     same synchronous stretch as that check, so a producer either lands
     before it (drained now) or after (its IPI re-enters this handler). *)
  let rec drain () =
    if p.Percpu.q_flush_all then begin
      p.Percpu.q_flush_all <- false;
      (* Collapsed entries are covered by the flush-all: discard them. *)
      p.Percpu.q_head <- p.Percpu.q_tail;
      let t0 = Machine.now m in
      Machine.delay m costs.Costs.cr3_write;
      Tlb.flush_all tlb;
      (* The flush covered whatever a deferred user flush would have. *)
      p.Percpu.pending_user <- Percpu.No_flush;
      if Machine.metering m then
        record_flush m ~rank:0 ~kind:Machine.flush_kind_cr3 (Machine.now m - t0);
      drain ()
    end
    else if p.Percpu.q_head < p.Percpu.q_tail then begin
      let s = p.Percpu.q_head mod Percpu.queue_slots in
      let mm_id = p.Percpu.q_mm.(s)
      and vpn = p.Percpu.q_vpn.(s)
      and from = p.Percpu.q_from.(s) in
      p.Percpu.q_head <- p.Percpu.q_head + 1;
      let t0 = Machine.now m in
      (* Invalidate the posted translation in every slot caching the mm,
         kernel and (under PTI) user PCID — eager on both halves, so the
         drain leaves nothing deferred on the responder's behalf. *)
      let asids = p.Percpu.asids and safe = m.Machine.opts.Opts.safe in
      let hit = ref false in
      Machine.chain_upto m (Array.length asids) ~phases:3 (fun i phase ->
          match phase with
          | 0 ->
              hit := asids.(i).Percpu.slot_mm = mm_id;
              if !hit then costs.Costs.invpcid_single else 0
          | 1 ->
              if !hit then Tlb.invpcid_addr tlb ~pcid:(Percpu.kernel_pcid i) ~vpn;
              if !hit && safe then costs.Costs.invpcid_single else 0
          | _ ->
              if !hit && safe then Tlb.invpcid_addr tlb ~pcid:(Percpu.user_pcid i) ~vpn;
              0);
      if Machine.metering m then
        record_flush m
          ~rank:(Machine.distance_rank m from me)
          ~kind:Machine.flush_kind_invlpg (Machine.now m - t0);
      drain ()
    end
    else begin
      p.Percpu.q_ack_gen <- p.Percpu.q_target_gen;
      Machine.charge_atomic m p.Percpu.line_queue ~by:me
    end
  in
  drain ();
  if Cpu.irq_from_user (Machine.cpu m me) then flush_pending_user m ~cpu:me ~has_stack:true

let irq_id m = shootdown_irq m ipi_handler

(* Post [info] into [c]'s ring under queue generation [gen], once the line
   RMW [perform] charges first has completed. The ring mutations run with
   no yield after that charge, so concurrent producers serialize at the
   charge and never interleave half-written entries. *)
let post_to m ~from ~gen (info : Flush_info.t) c =
  let p = Machine.percpu m c in
  let n = Flush_info.nr_entries info in
  if
    info.Flush_info.full || p.Percpu.q_flush_all
    || p.Percpu.q_tail - p.Percpu.q_head + n > Percpu.queue_slots
  then p.Percpu.q_flush_all <- true
  else
    List.iter
      (fun vpn ->
        let s = p.Percpu.q_tail mod Percpu.queue_slots in
        p.Percpu.q_mm.(s) <- info.Flush_info.mm_id;
        p.Percpu.q_vpn.(s) <- vpn;
        p.Percpu.q_gen.(s) <- info.Flush_info.new_tlb_gen;
        p.Percpu.q_from.(s) <- from;
        p.Percpu.q_tail <- p.Percpu.q_tail + 1)
      (Flush_info.vpns info);
  if gen > p.Percpu.q_target_gen then p.Percpu.q_target_gen <- gen

let perform m ~from ~mm (info : Flush_info.t) token =
  let stats = m.Machine.stats in
  let pcpu = Machine.percpu m from in
  (* Local flush first (there is no local ring): the shared
     generation-tracked flush function, with the §3.4 deferral policy. *)
  ignore (initiator_flush m ~from ~user:(default_user_policy m info) info);
  (* Targets: every CPU the mm's cpumask names, unfiltered — the queue
     protocol has no lazy/batched skip logic; an idle target just drains a
     short ring. *)
  let targets = pcpu.Percpu.scratch_targets in
  Cpuset.copy_into ~dst:targets ~src:(Mm_struct.cpuset mm);
  Cpuset.clear targets from;
  if Cpuset.is_empty targets then begin
    stats.Machine.local_only_flushes <- stats.Machine.local_only_flushes + 1;
    Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token
  end
  else begin
    stats.Machine.shootdowns <- stats.Machine.shootdowns + 1;
    let prep0 = Machine.now m in
    let gen = Machine.next_ipi_seq m in
    Machine.chain_cpus m targets ~phases:2 (fun c phase ->
        if phase = 0 then Cache.atomic (Machine.percpu m c).Percpu.line_queue ~by:from
        else begin
          post_to m ~from ~gen info c;
          0
        end);
    Smp.send_ipis m ~from ~targets ~irq_id:(irq_id m);
    if Machine.metering m then
      record_prep m ~from ~targets (Machine.now m - prep0);
    (* Ack wait: all targets must drain past [gen]. Initial spin, then up
       to [max_retries] resends with a backoff-multiplied spin each.
       Resends go only to the still-pending subset: re-IPIing an acked
       responder would be semantically idempotent (it drains an empty
       ring), but it would re-interrupt the responder and count phantom
       deliveries into n_ipis and the per-distance delivery meter —
       Apic.send_ipi_id bills every target it is handed. After the ladder
       is exhausted we spin without resending (simulated IPIs are
       reliable, so the wait terminates). *)
    let ack0 = Machine.now m in
    let all_acked () =
      Cpuset.fold
        (fun acc c -> acc && (Machine.percpu m c).Percpu.q_ack_gen >= gen)
        true targets
    in
    let cpu_t = Machine.cpu m from in
    let spin = ref initial_spin in
    let retries = ref 0 in
    let deadline = ref (Machine.now m + !spin) in
    while not (all_acked ()) do
      if !retries < max_retries then begin
        Cpu.poll_wait cpu_t (fun () -> all_acked () || Machine.now m >= !deadline);
        if (not (all_acked ())) && Machine.now m >= !deadline then begin
          (* [scratch_targets] must keep the full set for the ack fold and
             the post-wait line reads, so the pending subset gets its own
             per-initiator scratch. *)
          let pending = pcpu.Percpu.scratch_resend in
          Cpuset.copy_into ~dst:pending ~src:targets;
          Cpuset.iter
            (fun c ->
              if (Machine.percpu m c).Percpu.q_ack_gen >= gen then
                Cpuset.clear pending c)
            pending;
          if not (Cpuset.is_empty pending) then
            Smp.send_ipis m ~from ~targets:pending ~irq_id:(irq_id m);
          incr retries;
          spin := !spin * backoff_mult;
          deadline := Machine.now m + !spin
        end
      end
      else Cpu.poll_wait cpu_t all_acked
    done;
    (* Observing each ack generation pulls the responder's ring line back. *)
    Machine.chain_cpus m targets ~phases:1 (fun c _ ->
        Cache.read (Machine.percpu m c).Percpu.line_queue ~by:from);
    if Machine.metering m then begin
      let far =
        Cpuset.fold
          (fun acc c -> Int.max acc (Machine.distance_rank m from c))
          0 targets
      in
      Metrics.record_cycles m.Machine.phases.Machine.ack.(far) (Machine.now m - ack0)
    end;
    Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token;
    tracef m ~cpu:from "queue-spin shootdown complete (retries %d)" !retries
  end

let backend =
  {
    Protocol.reference = false;
    perform;
    responder_pending =
      (fun m ~cpu ->
        let p = Machine.percpu m cpu in
        p.Percpu.q_flush_all
        || p.Percpu.q_head < p.Percpu.q_tail
        || p.Percpu.q_ack_gen < p.Percpu.q_target_gen);
    quiescent =
      (fun m ~cpu fail ->
        let p = Machine.percpu m cpu in
        if p.Percpu.q_flush_all || p.Percpu.q_head < p.Percpu.q_tail then
          fail (Printf.sprintf "cpu%d queue-spin ring not drained at quiescence" cpu);
        if p.Percpu.q_ack_gen < p.Percpu.q_target_gen then
          fail
            (Printf.sprintf "cpu%d queue-spin ack generation behind at quiescence" cpu));
  }
