let tlb_shootdown_vector = 0xf6  (* CALL_FUNCTION_SINGLE_VECTOR-ish *)

(* Consolidated layout (§3.3): the lazy/batched flags live on the same
   line as the call-queue head, which the initiator is about to write
   anyway; baseline keeps a separate tlb_state line. *)
let tlb_state_line m pcpu =
  if (Opts.knobs m.Machine.opts).Opts.cacheline_consolidation then pcpu.Percpu.line_csq
  else pcpu.Percpu.line_tlb

(* The cost of reading [target]'s lazy/batched flags, for a charge run. *)
let read_remote_tlb_state m ~from ~target =
  Cache.read (tlb_state_line m (Machine.percpu m target)) ~by:from

let enqueue_work m ~from ~targets ~info ~early_ack =
  let me = Machine.percpu m from in
  let consolidated = (Opts.knobs m.Machine.opts).Opts.cacheline_consolidation in
  (* Baseline keeps flush_tlb_info on the initiator's stack and points every
     CSD at it: one extra shared line written here and read by every
     responder. *)
  let lead = if consolidated then 0 else Cache.write me.Percpu.line_stack_info ~by:from in
  (* Walk the target set in ascending cpu order — cfd_seq assignment order
     is part of the deterministic output — writing each CSD line, then the
     target's queue line, then queueing the CSD. The accumulator list is
     the one small allocation left on this path (the cfd records
     themselves must be allocated per target regardless). *)
  let acc = ref [] in
  Machine.chain_cpus m ~lead targets ~phases:3 (fun target phase ->
      let pcpu = Machine.percpu m target in
      match phase with
      | 0 ->
          let cfd =
            {
              Percpu.cfd_seq = Machine.next_ipi_seq m;
              cfd_initiator = from;
              cfd_target = target;
              cfd_info = info;
              cfd_early_ack = early_ack;
              cfd_acked = false;
              cfd_executed = false;
              cfd_line = Percpu.csd_line me ~target;
              cfd_info_line =
                (if consolidated then None else Some me.Percpu.line_stack_info);
            }
          in
          acc := cfd :: !acc;
          Cache.write cfd.Percpu.cfd_line ~by:from
      | 1 -> Cache.write pcpu.Percpu.line_csq ~by:from
      | _ ->
          let cfd = List.hd !acc in
          Queue.push cfd pcpu.Percpu.csq;
          pcpu.Percpu.csd_queued <- pcpu.Percpu.csd_queued + 1;
          if Machine.tracing m then
            Machine.trace_event m ~cpu:from
              (Trace.Ipi_send { seq = cfd.Percpu.cfd_seq; target });
          0);
  Array.of_list (List.rev !acc)

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
    if Queue.is_empty pcpu.Percpu.csq then -1
    else begin
      let cfd = Queue.pop pcpu.Percpu.csq in
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
              if cfd.Percpu.cfd_executed && cfd.Percpu.cfd_acked then
                pcpu.Percpu.csd_released <- pcpu.Percpu.csd_released + 1;
              pcpu.Percpu.csd_cur <- Percpu.no_cfd;
              fetch pcpu ~me phase
            end
  in
  let lead me = Cache.read (Machine.percpu m me).Percpu.line_csq ~by:me in
  (lead, visit)

(* CSD conservation: every CFD queued on a CPU was fetched, executed and
   acked there by quiescence. *)
let csd_quiescent m ~cpu fail =
  let pcpu = Machine.percpu m cpu in
  let queued = pcpu.Percpu.csd_queued and released = pcpu.Percpu.csd_released in
  if queued <> released then
    fail
      (Printf.sprintf "cpu%d: %d CFD(s) queued but %d executed and acked at quiescence"
         cpu queued released)

let wait_for_acks m ~from cfds ?(while_waiting = fun () -> ())
    ?(waiting_work = fun () -> false) () =
  let cpu = Machine.cpu m from in
  let t0 = Machine.now m in
  let n = Array.length cfds in
  (* Acks are monotone while we wait, so once a prefix of [cfds] is acked
     it stays acked: keep a cursor instead of rescanning from the head on
     every poll (this loop runs once per spin_poll window per shootdown). *)
  let next = ref 0 in
  let all_acked () =
    while !next < n && cfds.(!next).Percpu.cfd_acked do
      incr next
    done;
    !next = n
  in
  (* Spin with IRQ servicing; between polls give the §3.4 interplay a
     chance to flush user PTEs in the otherwise-dead time. A poll boundary
     where nothing changed — no ack landed, no IRQ deliverable, and
     [waiting_work] says [while_waiting] would be a no-op — is a pure idle
     tick, so [poll_wait] keeps it inside the engine event instead of
     resuming this process (the cursor bump in [all_acked] is private
     state, which [ready] is allowed to touch). *)
  let ready () = all_acked () || waiting_work () in
  let rec loop () =
    if not (all_acked ()) then begin
      while_waiting ();
      if not (all_acked ()) then begin
        Cpu.poll_wait cpu ready;
        loop ()
      end
    end
  in
  loop ();
  (* Observing each ack pulls the responder-written CSD line back. *)
  Machine.chain_upto m n ~phases:1 (fun i _ ->
      Cache.read cfds.(i).Percpu.cfd_line ~by:from);
  if n > 0 && Machine.tracing m then
    Machine.trace_event m ~cpu:from
      (Trace.Acks_seen
         { seqs = Array.to_list (Array.map (fun c -> c.Percpu.cfd_seq) cfds) });
  if n > 0 && Machine.metering m then begin
    (* The wait is one span; attribute it to the farthest responder — the
       ack that structurally arrives last and bounds the span. *)
    let far =
      Array.fold_left
        (fun acc c -> Int.max acc (Machine.distance_rank m from c.Percpu.cfd_target))
        0 cfds
    in
    Metrics.record_cycles m.Machine.phases.Machine.ack.(far) (Machine.now m - t0)
  end
