let tlb_shootdown_vector = 0xf6  (* CALL_FUNCTION_SINGLE_VECTOR-ish *)

(* loc begin: early-ack-consolidation *)
(* Consolidated layout (§3.3): the lazy/batched flags live on the same
   line as the call-queue head, which the initiator is about to write
   anyway; baseline keeps a separate tlb_state line. *)
let tlb_state_line m pcpu =
  if (Opts.knobs m.Machine.opts).Opts.cacheline_consolidation then pcpu.Percpu.line_csq
  else pcpu.Percpu.line_tlb

(* The cost of reading [target]'s lazy/batched flags, for a charge run. *)
let read_remote_tlb_state m ~from ~target =
  Cache.read (tlb_state_line m (Machine.percpu m target)) ~by:from

(* The charge run of [me]'s enqueue, once per target in ascending cpu
   order — cfd_seq assignment order is part of the deterministic output —
   over the slots [enqueue_work] claimed: number the request and write its
   CSD line, write the target's queue line, then queue the request. *)
let enqueue_visit m me target phase =
  let cfd = me.Percpu.csds.(target) and from = Cpu.id me.Percpu.cpu in
  match phase with
  | 0 ->
      cfd.Percpu.cfd_seq <- Machine.next_ipi_seq m;
      Cache.write cfd.Percpu.cfd_line ~by:from
  | 1 -> Cache.write (Machine.percpu m target).Percpu.line_csq ~by:from
  | _ ->
      let pcpu = Machine.percpu m target in
      Percpu.csq_push pcpu cfd;
      pcpu.Percpu.csd_queued <- pcpu.Percpu.csd_queued + 1;
      if Machine.tracing m then
        Machine.trace_event m ~cpu:from
          (Trace.Ipi_send { seq = cfd.Percpu.cfd_seq; target });
      0

let enqueue_work m ~from ~targets ~info ~early_ack =
  let me = Machine.percpu m from in
  let consolidated = (Opts.knobs m.Machine.opts).Opts.cacheline_consolidation in
  let target = ref (Cpuset.next targets 0) in
  while !target >= 0 do
    ignore (Percpu.claim_csd me ~target:!target ~consolidated ~info ~early_ack : Percpu.cfd);
    target := Cpuset.next targets (!target + 1)
  done;
  (* Baseline keeps flush_tlb_info on the initiator's stack and points every
     CSD at it: one extra shared line written here and read by every
     responder. *)
  let lead = if consolidated then 0 else Cache.write me.Percpu.line_stack_info ~by:from in
  if me.Percpu.enqueue_visit == Process.no_visit then
    me.Percpu.enqueue_visit <- enqueue_visit m me;
  Process.chain_cpus m.Machine.engine ~lead targets ~phases:3 me.Percpu.enqueue_visit

let send_ipis m ~from ~targets ~irq_id =
  let send_cost = Apic.send_ipi_id m.Machine.apic ~from ~targets ~irq_id in
  Machine.delay m send_cost

(* [ack]'s two halves, for a charge run: the line write, which marks [cfd]
   acked and returns its cost (0 when it already is), and the trace event
   once it has landed. The CPU's [csd_acking] carries the write from one
   to the other. *)
let ack_write m ~me cfd =
  let pcpu = Machine.percpu m me in
  pcpu.Percpu.csd_acking <- not cfd.Percpu.cfd_acked;
  if pcpu.Percpu.csd_acking then begin
    cfd.Percpu.cfd_acked <- true;
    Cache.write cfd.Percpu.cfd_line ~by:me
  end
  else 0

let ack_landed m ~me cfd =
  let pcpu = Machine.percpu m me in
  if pcpu.Percpu.csd_acking then begin
    pcpu.Percpu.csd_acking <- false;
    if Machine.tracing m then
      Machine.trace_event m ~cpu:me
        (Trace.Ipi_ack
           {
             seq = cfd.Percpu.cfd_seq;
             initiator = cfd.Percpu.cfd_initiator;
             early = cfd.Percpu.cfd_early_ack;
           })
  end
(* loc end: early-ack-consolidation *)

(* A whole drain is one charge run: the queue-line read as its lead, then
   for each request the CSD-line read and, under the baseline layout, the
   info-line read and a page walk, then the backend's [work] phases until
   [work] ends the request. The baseline keeps flush_tlb_info on the
   initiator's stack, which is 4 KiB-mapped — unlike the 2 MiB-mapped
   per-cpu/global data — so touching it also costs a page walk the
   consolidated layout avoids (§3.3 item 2). The run ends at the end of a
   request that leaves the queue empty, and the CPU's [csd_cur] and
   [csd_base] say where it is between boundaries. *)
let drain_queue m ~work =
  let fetch pcpu ~me phase =
    let cfd = Percpu.csq_pop pcpu in
    if cfd == Percpu.no_cfd then -1
    else begin
      pcpu.Percpu.csd_cur <- cfd;
      pcpu.Percpu.csd_base <- phase;
      Cache.read cfd.Percpu.cfd_line ~by:me
    end
  in
  let visit me phase =
    let pcpu = Machine.percpu m me in
    let cfd = pcpu.Percpu.csd_cur in
    if cfd == Percpu.no_cfd then fetch pcpu ~me phase
    else
      match (phase - pcpu.Percpu.csd_base, cfd.Percpu.cfd_info_line) with
        | 1, Some line -> Cache.read line ~by:me
        | 2, Some _ -> m.Machine.costs.Costs.page_walk
        | (1 | 2), None -> 0
        | k, _ ->
            let d = work cfd (k - 3) in
            if d >= 0 then d
            else begin
              if cfd.Percpu.cfd_executed && cfd.Percpu.cfd_acked then begin
                (* The release: the initiator may reuse the slot. *)
                pcpu.Percpu.csd_released <- pcpu.Percpu.csd_released + 1;
                cfd.Percpu.cfd_busy <- false
              end;
              pcpu.Percpu.csd_cur <- Percpu.no_cfd;
              fetch pcpu ~me phase
            end
  in
  let lead me = Cache.read (Machine.percpu m me).Percpu.line_csq ~by:me in
  (lead, visit)

(* Work still queued on [cpu]'s call queue: the paper and oracle
   backends' [responder_pending]. *)
let csd_pending m ~cpu = not (Percpu.csq_is_empty (Machine.percpu m cpu))

(* CSD conservation: every CFD queued on a CPU was fetched, executed and
   acked there by quiescence. *)
let csd_quiescent m ~cpu fail =
  let pcpu = Machine.percpu m cpu in
  let queued = pcpu.Percpu.csd_queued and released = pcpu.Percpu.csd_released in
  if queued <> released then
    fail
      (Printf.sprintf "cpu%d: %d CFD(s) queued but %d executed and acked at quiescence"
         cpu queued released)

(* Initiator prep (selection + enqueue + ICR writes) and the ack wait are
   each one span, attributed to the distance rank of the farthest target:
   the ack that structurally arrives last bounds the span. Callers gate on
   [Machine.metering]. *)
let far_rank m ~from targets =
  Cpuset.fold (fun acc c -> Int.max acc (Machine.distance_rank m from c)) 0 targets

let record_prep m ~from ~targets dt =
  Metrics.record_cycles m.Machine.phases.Machine.prep.(far_rank m ~from targets) dt

let record_ack m ~from ~targets dt =
  Metrics.record_cycles m.Machine.phases.Machine.ack.(far_rank m ~from targets) dt

(* Has any of [from]'s requests to [targets] been acked? *)
let any_acked m ~from ~targets =
  let csds = (Machine.percpu m from).Percpu.csds in
  let t = ref (Cpuset.next targets 0) in
  while !t >= 0 && not csds.(!t).Percpu.cfd_acked do
    t := Cpuset.next targets (!t + 1)
  done;
  !t >= 0

(* Acks are monotone while an initiator waits, so once the requests to a
   prefix of its targets are acked they stay acked: advance the cursor
   instead of rescanning from the lowest target on every poll (the wait
   polls once per spin_poll window per shootdown). The slots keep this
   round's records until the next round from this CPU. *)
let all_acked me =
  let csds = me.Percpu.csds and targets = me.Percpu.ack_targets in
  let next = ref me.Percpu.ack_next in
  while !next >= 0 && csds.(!next).Percpu.cfd_acked do
    next := Cpuset.next targets (!next + 1)
  done;
  me.Percpu.ack_next <- !next;
  !next < 0

let no_work () = false

let wait_for_acks_working m ~from ~targets ~while_waiting ~waiting_work =
  let cpu = Machine.cpu m from in
  let me = Machine.percpu m from in
  let t0 = Machine.now m in
  (* Spin with IRQ servicing; between polls give the §3.4 interplay a
     chance to flush user PTEs in the otherwise-dead time. A poll boundary
     where nothing changed — no ack landed, no IRQ deliverable, and
     [waiting_work] says [while_waiting] would be a no-op — is a pure idle
     tick, so [poll_wait] keeps it inside the engine event instead of
     resuming this process (the cursor bump in [all_acked] is private
     state, which [ack_ready] is allowed to touch). Both callbacks are
     built once per initiator; the wait's state lives in its Percpu. *)
  if me.Percpu.ack_visit == Process.no_visit then begin
    me.Percpu.ack_ready <- (fun () -> all_acked me || me.Percpu.ack_work ());
    me.Percpu.ack_visit <-
      (fun c _ -> Cache.read me.Percpu.csds.(c).Percpu.cfd_line ~by:from)
  end;
  me.Percpu.ack_targets <- targets;
  me.Percpu.ack_next <- Cpuset.next targets 0;
  me.Percpu.ack_work <- waiting_work;
  while not (all_acked me) do
    while_waiting ();
    if not (all_acked me) then Cpu.poll_wait cpu me.Percpu.ack_ready
  done;
  me.Percpu.ack_work <- no_work;
  (* Observing each ack pulls the responder-written CSD line back. *)
  Process.chain_cpus m.Machine.engine ~lead:0 targets ~phases:1 me.Percpu.ack_visit;
  if not (Cpuset.is_empty targets) then begin
    if Machine.tracing m then begin
      let csds = me.Percpu.csds in
      let seqs = Cpuset.fold (fun l c -> csds.(c).Percpu.cfd_seq :: l) [] targets in
      Machine.trace_event m ~cpu:from (Trace.Acks_seen { seqs = List.rev seqs })
    end;
    if Machine.metering m then record_ack m ~from ~targets (Machine.now m - t0)
  end

let wait_for_acks m ~from ~targets =
  wait_for_acks_working m ~from ~targets ~while_waiting:ignore ~waiting_work:no_work
