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
   the checker window still closes with no stale translation machine-wide.

   A CPU's ring, its line and the state below live in its
   [Percpu.queue_state], built at the CPU's first use of this backend. *)

open Flush_core

(* Charmos retry ladder constants (scaled to simulator cycles). *)
let initial_spin = 2000
let max_retries = 6
let backoff_mult = 4

(* The responder: one charge run per IPI, its place in the CPU's
   [queue_state]. The queue-line read is its lead. Then, until a check
   sees the ring empty, it drains: a flush-all (the CR3 write, then the
   whole-TLB flush), or the next posted entry, which it invalidates in
   every ASID slot caching the entry's mm, kernel and (under PTI) user
   PCID, eager on both halves, so the drain leaves nothing deferred on
   the responder's behalf: per slot, the check and its INVPCID cost, the
   kernel INVPCID and the user one's cost, then the user INVPCID. Last
   comes the ack: the generation store happens at the same boundary as
   the check that saw the ring empty, so a producer either lands before
   it (drained now) or after (its IPI re-enters this handler), and the
   run ends once the ack atomic on the queue line has landed. *)
let q_decide = 0
let q_cr3 = 1
let q_entry = 2
let q_acked = 3

(* [p]'s queue state, built at the CPU's first use of the backend. *)
let queue_state p =
  if p.Percpu.q_state == Percpu.no_queue_state then
    p.Percpu.q_state <- Percpu.new_queue_state p.Percpu.registry;
  p.Percpu.q_state

let queue_of m c = queue_state (Machine.percpu m c)

let rec visit m me phase =
  let p = Machine.percpu m me in
  let q = queue_state p in
  if phase = 0 then q.Percpu.q_step <- q_decide;
  let step = q.Percpu.q_step in
  if step = q_decide then
    if q.Percpu.q_flush_all then begin
      q.Percpu.q_flush_all <- false;
      (* Collapsed entries are covered by the flush-all: discard them. *)
      q.Percpu.q_head <- q.Percpu.q_tail;
      q.Percpu.q_t0 <- Machine.now m;
      q.Percpu.q_step <- q_cr3;
      m.Machine.costs.Costs.cr3_write
    end
    else if q.Percpu.q_head < q.Percpu.q_tail then begin
      let s = q.Percpu.q_head mod Percpu.queue_slots in
      q.Percpu.q_mm_id <- q.Percpu.q_mm.(s);
      q.Percpu.q_at_vpn <- q.Percpu.q_vpn.(s);
      q.Percpu.q_by <- q.Percpu.q_from.(s);
      q.Percpu.q_head <- q.Percpu.q_head + 1;
      q.Percpu.q_t0 <- Machine.now m;
      q.Percpu.q_base <- phase;
      q.Percpu.q_step <- q_entry;
      slot_phase m p q me 0 phase
    end
    else begin
      q.Percpu.q_ack_gen <- q.Percpu.q_target_gen;
      q.Percpu.q_step <- q_acked;
      Cache.atomic q.Percpu.line_queue ~by:me
    end
  else if step = q_cr3 then begin
    Tlb.flush_all (Cpu.tlb p.Percpu.cpu);
    (* The flush covered whatever a deferred user flush would have. *)
    p.Percpu.pending_user <- Percpu.No_flush;
    if Machine.metering m then
      record_flush m ~rank:0 ~kind:Machine.flush_kind_cr3 (Machine.now m - q.Percpu.q_t0);
    q.Percpu.q_step <- q_decide;
    visit m me phase
  end
  else if step = q_entry then slot_phase m p q me (phase - q.Percpu.q_base) phase
  else -1

(* Step [k] of the entry in hand: phase [k mod 3] of ASID slot [k / 3]. *)
and slot_phase m p q me k phase =
  let asids = p.Percpu.asids in
  let i = k / 3 in
  if i >= Array.length asids then begin
    if Machine.metering m then
      record_flush m
        ~rank:(Machine.distance_rank m q.Percpu.q_by me)
        ~kind:Machine.flush_kind_invlpg
        (Machine.now m - q.Percpu.q_t0);
    q.Percpu.q_step <- q_decide;
    visit m me phase
  end
  else begin
    let costs = m.Machine.costs and safe = m.Machine.opts.Opts.safe in
    let tlb = Cpu.tlb p.Percpu.cpu and vpn = q.Percpu.q_at_vpn in
    match k mod 3 with
    | 0 ->
        q.Percpu.q_hit <- asids.(i).Percpu.slot_mm = q.Percpu.q_mm_id;
        if q.Percpu.q_hit then costs.Costs.invpcid_single else 0
    | 1 ->
        if q.Percpu.q_hit then Tlb.invpcid_addr tlb ~pcid:(Percpu.kernel_pcid i) ~vpn;
        if q.Percpu.q_hit && safe then costs.Costs.invpcid_single else 0
    | _ ->
        if q.Percpu.q_hit && safe then
          Tlb.invpcid_addr tlb ~pcid:(Percpu.user_pcid i) ~vpn;
        0
  end

let irq_id m =
  shootdown_irq m (fun m ->
      ((fun me -> Cache.read (queue_of m me).Percpu.line_queue ~by:me), visit m))

(* Post [info] into [c]'s ring under queue generation [gen], once the line
   RMW [perform] charges first has completed. The ring mutations run with
   no yield after that charge, so concurrent producers serialize at the
   charge and never interleave half-written entries. *)
let post_to m ~from ~gen (info : Flush_info.t) c =
  let q = queue_of m c in
  let n = Flush_info.nr_entries info in
  if
    info.Flush_info.full || q.Percpu.q_flush_all
    || q.Percpu.q_tail - q.Percpu.q_head + n > Percpu.queue_slots
  then q.Percpu.q_flush_all <- true
  else
    for i = 0 to info.Flush_info.pages - 1 do
      let s = q.Percpu.q_tail mod Percpu.queue_slots in
      q.Percpu.q_mm.(s) <- info.Flush_info.mm_id;
      q.Percpu.q_vpn.(s) <- Flush_info.nth_vpn info i;
      q.Percpu.q_from.(s) <- from;
      q.Percpu.q_tail <- q.Percpu.q_tail + 1
    done;
  if gen > q.Percpu.q_target_gen then q.Percpu.q_target_gen <- gen

(* Has every member of [targets] from [c] on drained to generation [gen]?
   A plain walk: no closure per poll. *)
let rec acked_from m targets gen c =
  c < 0
  || (Machine.percpu m c).Percpu.q_state.Percpu.q_ack_gen >= gen
     && acked_from m targets gen (Cpuset.next targets (c + 1))

let all_acked m targets gen = acked_from m targets gen (Cpuset.next targets 0)

(* The ack wait's poll predicate for initiator [p]: every target acked.
   Built once per CPU; the wait leaves its generation in [q]. The retry
   ladder's resend deadline is the poll span's end, not a clock test
   here: a spin predicate reads no clock. *)
let ack_ready m p q () = all_acked m p.Percpu.scratch_targets q.Percpu.q_wait_gen

let perform m ~from ~mm (info : Flush_info.t) =
  let pcpu = Machine.percpu m from in
  (* Local flush first (there is no local ring): the shared
     generation-tracked flush function, with the §3.4 deferral policy. *)
  ignore (initiator_flush m ~from ~user:(default_user_policy m info) info);
  (* Targets: every CPU the mm's cpumask names, unfiltered — the queue
     protocol has no lazy/batched skip logic; an idle target just drains a
     short ring. *)
  let targets = snapshot_targets m ~from (Mm_struct.cpuset mm) in
  let remote = not (Cpuset.is_empty targets) in
  if remote then begin
    let prep0 = Machine.now m in
    let gen = Machine.next_ipi_seq m in
    Process.chain_cpus m.Machine.engine targets ~phases:2 (fun c phase ->
        if phase = 0 then Cache.atomic (queue_of m c).Percpu.line_queue ~by:from
        else begin
          post_to m ~from ~gen info c;
          0
        end);
    Smp.send_ipis m ~from ~targets ~irq_id:(irq_id m);
    if Machine.metering m then
      Smp.record_prep m ~from ~targets (Machine.now m - prep0);
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
    let cpu_t = Machine.cpu m from in
    let q = queue_state pcpu in
    if q.Percpu.q_ready == Percpu.no_ready then q.Percpu.q_ready <- ack_ready m pcpu q;
    q.Percpu.q_wait_gen <- gen;
    let spin = ref initial_spin in
    let retries = ref 0 in
    let deadline = ref (Machine.now m + !spin) in
    while not (all_acked m targets gen) do
      if !retries < max_retries then begin
        Cpu.poll_until cpu_t ~deadline:!deadline q.Percpu.q_ready;
        if (not (all_acked m targets gen)) && Machine.now m >= !deadline
        then begin
          (* [scratch_targets] must keep the full set for the ack check
             and the post-wait line reads, so the pending subset gets its
             own per-initiator scratch. *)
          let pending = q.Percpu.scratch_resend in
          Cpuset.copy_into ~dst:pending ~src:targets;
          let c = ref (Cpuset.next pending 0) in
          while !c >= 0 do
            if (Machine.percpu m !c).Percpu.q_state.Percpu.q_ack_gen >= gen then
              Cpuset.clear pending !c;
            c := Cpuset.next pending (!c + 1)
          done;
          if not (Cpuset.is_empty pending) then
            Smp.send_ipis m ~from ~targets:pending ~irq_id:(irq_id m);
          incr retries;
          spin := !spin * backoff_mult;
          deadline := Machine.now m + !spin
        end
      end
      else begin
        (* Past the ladder the wait is the ack check alone. *)
        Cpu.poll_wait cpu_t q.Percpu.q_ready
      end
    done;
    (* Observing each ack generation pulls the responder's ring line back. *)
    Process.chain_cpus m.Machine.engine targets ~phases:1 (fun c _ ->
        Cache.read (queue_of m c).Percpu.line_queue ~by:from);
    if Machine.metering m then Smp.record_ack m ~from ~targets (Machine.now m - ack0);
    tracef m ~cpu:from "queue-spin acks seen (retries %d)" !retries
  end;
  remote

let backend =
  {
    Protocol.reference = false;
    perform;
    responder_pending =
      (fun m ~cpu ->
        let q = (Machine.percpu m cpu).Percpu.q_state in
        q.Percpu.q_flush_all
        || q.Percpu.q_head < q.Percpu.q_tail
        || q.Percpu.q_ack_gen < q.Percpu.q_target_gen);
    quiescent =
      (fun m ~cpu fail ->
        let q = (Machine.percpu m cpu).Percpu.q_state in
        if q.Percpu.q_flush_all || q.Percpu.q_head < q.Percpu.q_tail then
          fail (Printf.sprintf "cpu%d queue-spin ring not drained at quiescence" cpu);
        if q.Percpu.q_ack_gen < q.Percpu.q_target_gen then
          fail
            (Printf.sprintf "cpu%d queue-spin ack generation behind at quiescence" cpu));
  }
