let tlb_shootdown_vector = 0xf6  (* CALL_FUNCTION_SINGLE_VECTOR-ish *)

(* Consolidated layout (§3.3): the lazy/batched flags live on the same
   line as the call-queue head, which the initiator is about to write
   anyway; baseline keeps a separate tlb_state line. *)
let tlb_state_line m pcpu =
  if (Opts.knobs m.Machine.opts).Opts.cacheline_consolidation then pcpu.Percpu.line_csq
  else pcpu.Percpu.line_tlb

let read_remote_tlb_state m ~from ~target =
  Machine.charge_read m (tlb_state_line m (Machine.percpu m target)) ~by:from

let enqueue_work m ~from ~targets ~info ~early_ack =
  let me = Machine.percpu m from in
  let consolidated = (Opts.knobs m.Machine.opts).Opts.cacheline_consolidation in
  (* Baseline keeps flush_tlb_info on the initiator's stack and points every
     CSD at it: one extra shared line written here and read by every
     responder. *)
  if not consolidated then
    Machine.charge_write m me.Percpu.line_stack_info ~by:from;
  (* Walk the target set in ascending cpu order — cfd_seq assignment order
     is part of the deterministic output. The accumulator list is the one
     small allocation left on this path (the cfd records themselves must
     be allocated per target regardless). *)
  let acc = ref [] in
  Cpuset.iter
    (fun target ->
      let pcpu = Machine.percpu m target in
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
          cfd_info_line = (if consolidated then None else Some me.Percpu.line_stack_info);
        }
      in
      Machine.charge_write m cfd.Percpu.cfd_line ~by:from;
      Machine.charge_write m pcpu.Percpu.line_csq ~by:from;
      Queue.push cfd pcpu.Percpu.csq;
      if Machine.tracing m then
        Machine.trace_event m ~cpu:from
          (Trace.Ipi_send { seq = cfd.Percpu.cfd_seq; target });
      acc := cfd :: !acc)
    targets;
  Array.of_list (List.rev !acc)

let send_ipis m ~from ~targets ~irq_id =
  let send_cost = Apic.send_ipi_id m.Machine.apic ~from ~targets ~irq_id in
  Machine.delay m send_cost

let drain_queue m ~me ~run =
  let pcpu = Machine.percpu m me in
  Machine.charge_read m pcpu.Percpu.line_csq ~by:me;
  while not (Queue.is_empty pcpu.Percpu.csq) do
    let cfd = Queue.pop pcpu.Percpu.csq in
    Machine.charge_read m cfd.Percpu.cfd_line ~by:me;
    (match cfd.Percpu.cfd_info_line with
    | Some line ->
        Machine.charge_read m line ~by:me;
        (* The baseline keeps flush_tlb_info on the initiator's stack,
           which is 4 KiB-mapped — unlike the 2 MiB-mapped per-cpu/global
           data — so touching it costs a page walk the consolidated layout
           avoids (§3.3 item 2). *)
        Machine.delay m m.Machine.costs.Costs.page_walk
    | None -> ());
    run cfd
  done

let ack m ~me ?(early = false) cfd =
  if not cfd.Percpu.cfd_acked then begin
    cfd.Percpu.cfd_acked <- true;
    Machine.charge_write m cfd.Percpu.cfd_line ~by:me;
    if Machine.tracing m then
      Machine.trace_event m ~cpu:me
        (Trace.Ipi_ack
           { seq = cfd.Percpu.cfd_seq; initiator = cfd.Percpu.cfd_initiator; early })
  end

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
  Array.iter (fun c -> Machine.charge_read m c.Percpu.cfd_line ~by:from) cfds;
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
