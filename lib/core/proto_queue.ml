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

   A CPU's ring, its line and the state below live in its [queue], built
   at the CPU's first use of this backend. *)

open Flush_core

(* Ring capacity. Charmos-style: small and bounded — overflow is expected
   under bursts and collapses to a flush-all rather than blocking the
   initiator. *)
let slots = 8

(* A CPU's state: the ring of posted invalidations and its line, the
   responder's place in its drain run, and the initiator's ack wait. *)
type queue = {
  q_mm : int array; (* bounded ring of posted invalidations: mm ids ... *)
  q_vpn : int array; (* ... vpns ... *)
  q_from : int array; (* ... and posting initiators, for distance attribution *)
  mutable q_head : int; (* ring cursors, monotone; slot = cursor mod size *)
  mutable q_tail : int;
  mutable q_flush_all : bool;
      (* overflow collapse: the ring filled, so the next drain does one
         whole-TLB flush instead of replaying entries *)
  mutable q_target_gen : int; (* newest queue generation posted to us *)
  mutable q_ack_gen : int; (* queue generation we have drained up to *)
  line_queue : Cache.line; (* the ring's shared cache line *)
  mutable q_step : int; (* what the responder's run does next *)
  mutable q_base : int; (* the run phase the entry in hand began at *)
  mutable q_mm_id : int; (* the entry in hand: mm, vpn, initiator *)
  mutable q_at_vpn : int;
  mutable q_by : int;
  mutable q_hit : bool; (* the ASID slot in hand caches the entry's mm *)
  mutable q_t0 : int; (* when the entry or flush-all in hand began *)
  scratch_resend : Cpuset.t;
      (* retry-ladder resend scratch: rebuilt as the un-acked subset of
         scratch_targets at each resend, while scratch_targets still holds
         the full set the ack wait checks. *)
  mutable q_wait_gen : int; (* the generation every target must reach *)
  mutable q_ready : unit -> bool; (* the ack wait's poll predicate *)
}

let no_ready () = true

let new_queue registry =
  {
    q_mm = Array.make slots (-1);
    q_vpn = Array.make slots 0;
    q_from = Array.make slots 0;
    q_head = 0;
    q_tail = 0;
    q_flush_all = false;
    q_target_gen = 0;
    q_ack_gen = 0;
    line_queue = Cache.create_line registry;
    q_step = 0;
    q_base = 0;
    q_mm_id = -1;
    q_at_vpn = 0;
    q_by = 0;
    q_hit = false;
    q_t0 = 0;
    scratch_resend = Cpuset.create ~bits:0;
    q_wait_gen = 0;
    q_ready = no_ready;
  }

(* A CPU that never used the backend: an empty ring, nothing posted or
   pending. Never written; module-level, so the per-CPU array starts from
   an old value. *)
let no_queue = new_queue (Cache.create_registry (Topology.flat 1) Costs.default)

(* Charmos retry ladder constants (scaled to simulator cycles). *)
let initial_spin = 2000
let max_retries = 6
let backoff_mult = 4

(* The responder: one charge run per IPI, its place in the CPU's
   [queue]. The queue-line read is its lead. Then, until a check
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

(* [c]'s queue, built at the CPU's first use of the backend. *)
let queue_of m qs c =
  let q = qs.(c) in
  if q != no_queue then q
  else begin
    let q = new_queue m.Machine.registry in
    qs.(c) <- q;
    q
  end

let rec visit m qs me phase =
  let p = Machine.percpu m me in
  let q = queue_of m qs me in
  if phase = 0 then q.q_step <- q_decide;
  let step = q.q_step in
  if step = q_decide then
    if q.q_flush_all then begin
      q.q_flush_all <- false;
      (* Collapsed entries are covered by the flush-all: discard them. *)
      q.q_head <- q.q_tail;
      q.q_t0 <- Machine.now m;
      q.q_step <- q_cr3;
      m.Machine.costs.Costs.cr3_write
    end
    else if q.q_head < q.q_tail then begin
      let s = q.q_head mod slots in
      q.q_mm_id <- q.q_mm.(s);
      q.q_at_vpn <- q.q_vpn.(s);
      q.q_by <- q.q_from.(s);
      q.q_head <- q.q_head + 1;
      q.q_t0 <- Machine.now m;
      q.q_base <- phase;
      q.q_step <- q_entry;
      slot_phase m qs p q me 0 phase
    end
    else begin
      q.q_ack_gen <- q.q_target_gen;
      q.q_step <- q_acked;
      Cache.atomic q.line_queue ~by:me
    end
  else if step = q_cr3 then begin
    Tlb.flush_all (Cpu.tlb p.Percpu.cpu);
    (* The flush covered whatever a deferred user flush would have. *)
    p.Percpu.pending_user <- Percpu.No_flush;
    if Machine.metering m then
      record_flush m ~rank:0 ~kind:Machine.flush_kind_cr3 (Machine.now m - q.q_t0);
    q.q_step <- q_decide;
    visit m qs me phase
  end
  else if step = q_entry then slot_phase m qs p q me (phase - q.q_base) phase
  else -1

(* Step [k] of the entry in hand: phase [k mod 3] of ASID slot [k / 3]. *)
and slot_phase m qs p q me k phase =
  let asids = p.Percpu.asids in
  let i = k / 3 in
  if i >= Array.length asids then begin
    if Machine.metering m then
      record_flush m
        ~rank:(Machine.distance_rank m q.q_by me)
        ~kind:Machine.flush_kind_invlpg
        (Machine.now m - q.q_t0);
    q.q_step <- q_decide;
    visit m qs me phase
  end
  else begin
    let costs = m.Machine.costs and safe = m.Machine.opts.Opts.safe in
    let tlb = Cpu.tlb p.Percpu.cpu and vpn = q.q_at_vpn in
    match k mod 3 with
    | 0 ->
        q.q_hit <- asids.(i).Percpu.slot_mm = q.q_mm_id;
        if q.q_hit then costs.Costs.invpcid_single else 0
    | 1 ->
        if q.q_hit then Tlb.invpcid_addr tlb ~pcid:(Percpu.kernel_pcid i) ~vpn;
        if q.q_hit && safe then costs.Costs.invpcid_single else 0
    | _ ->
        if q.q_hit && safe then
          Tlb.invpcid_addr tlb ~pcid:(Percpu.user_pcid i) ~vpn;
        0
  end

(* Post [info] into [c]'s ring under queue generation [gen], once the line
   RMW [perform] charges first has completed. The ring mutations run with
   no yield after that charge, so concurrent producers serialize at the
   charge and never interleave half-written entries. *)
let post_to m qs ~from ~gen (info : Flush_info.t) c =
  let q = queue_of m qs c in
  let n = Flush_info.nr_entries info in
  if
    info.Flush_info.full || q.q_flush_all
    || q.q_tail - q.q_head + n > slots
  then q.q_flush_all <- true
  else
    for i = 0 to info.Flush_info.pages - 1 do
      let s = q.q_tail mod slots in
      q.q_mm.(s) <- info.Flush_info.mm_id;
      q.q_vpn.(s) <- Flush_info.nth_vpn info i;
      q.q_from.(s) <- from;
      q.q_tail <- q.q_tail + 1
    done;
  if gen > q.q_target_gen then q.q_target_gen <- gen

(* Has every member of [targets] from [c] on drained to generation [gen]?
   A plain walk: no closure per poll. *)
let rec acked_from qs targets gen c =
  c < 0
  || qs.(c).q_ack_gen >= gen && acked_from qs targets gen (Cpuset.next targets (c + 1))

let all_acked qs targets gen = acked_from qs targets gen (Cpuset.next targets 0)

(* The ack wait's poll predicate for initiator [p]: every target acked.
   Built once per CPU; the wait leaves its generation in [q]. The retry
   ladder's resend deadline is the poll span's end, not a clock test
   here: a spin predicate reads no clock. *)
let ack_ready qs p q () = all_acked qs p.Percpu.scratch_targets q.q_wait_gen

let perform m qs ~responder ~from ~mm (info : Flush_info.t) =
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
    Process.chain_cpus m.Machine.engine ~lead:0 targets ~phases:2 (fun c phase ->
        if phase = 0 then Cache.atomic (queue_of m qs c).line_queue ~by:from
        else begin
          post_to m qs ~from ~gen info c;
          0
        end);
    Smp.send_ipis m ~from ~targets ~irq_id:(shootdown_irq m responder);
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
    let q = queue_of m qs from in
    if q.q_ready == no_ready then q.q_ready <- ack_ready qs pcpu q;
    q.q_wait_gen <- gen;
    let spin = ref initial_spin in
    let retries = ref 0 in
    let deadline = ref (Machine.now m + !spin) in
    while not (all_acked qs targets gen) do
      if !retries < max_retries then begin
        Cpu.poll_until cpu_t ~deadline:!deadline q.q_ready;
        if (not (all_acked qs targets gen)) && Machine.now m >= !deadline
        then begin
          (* [scratch_targets] must keep the full set for the ack check
             and the post-wait line reads, so the pending subset gets its
             own per-initiator scratch. *)
          let pending = q.scratch_resend in
          Cpuset.copy_into ~dst:pending ~src:targets;
          let c = ref (Cpuset.next pending 0) in
          while !c >= 0 do
            if qs.(!c).q_ack_gen >= gen then
              Cpuset.clear pending !c;
            c := Cpuset.next pending (!c + 1)
          done;
          if not (Cpuset.is_empty pending) then
            Smp.send_ipis m ~from ~targets:pending ~irq_id:(shootdown_irq m responder);
          incr retries;
          spin := !spin * backoff_mult;
          deadline := Machine.now m + !spin
        end
      end
      else begin
        (* Past the ladder the wait is the ack check alone. *)
        Cpu.poll_wait cpu_t q.q_ready
      end
    done;
    (* Observing each ack generation pulls the responder's ring line back. *)
    Process.chain_cpus m.Machine.engine ~lead:0 targets ~phases:1 (fun c _ ->
        Cache.read (queue_of m qs c).line_queue ~by:from);
    if Machine.metering m then Smp.record_ack m ~from ~targets (Machine.now m - ack0);
    tracef m ~cpu:from "queue-spin acks seen (retries %d)" !retries
  end;
  remote

(* The backend instance for [m]: one queue per CPU, each built at the
   CPU's first use. *)
let create m =
  let qs = Array.make (Machine.n_cpus m) no_queue in
  let lead me = Cache.read (queue_of m qs me).line_queue ~by:me in
  let responder m = (lead, visit m qs) in
  {
    Protocol.reference = false;
    perform = (fun ~from ~mm info -> perform m qs ~responder ~from ~mm info);
    responder_pending =
      (fun ~cpu ->
        let q = qs.(cpu) in
        q.q_flush_all || q.q_head < q.q_tail || q.q_ack_gen < q.q_target_gen);
    quiescent =
      (fun ~cpu fail ->
        let q = qs.(cpu) in
        if q.q_flush_all || q.q_head < q.q_tail then
          fail (Printf.sprintf "cpu%d queue-spin ring not drained at quiescence" cpu);
        if q.q_ack_gen < q.q_target_gen then
          fail
            (Printf.sprintf "cpu%d queue-spin ack generation behind at quiescence" cpu));
  }
