(* Cronus-style single-global-lock synchronous full broadcast (SNIPPETS.md
   §1): the initiator takes the machine-wide ipi_mutex, posts the flush
   descriptor to one protocol-wide status line, clears every target's done
   bit, self-invalidates, kicks every other CPU, and spins until the whole
   status table reads done. No target filtering, no early ack, no overlap —
   the whole machine serializes on one lock and one cache line, which is
   exactly the contention the paper's protocol avoids and the shootout
   report prices.

   Blocked waiters are safe: a CPU whose process is parked in
   Rwsem.down_write is in kernel context, so Cpu.post_irq starts a
   detached drain there, and the responder's handler, a step function
   driven by the CPU's own dispatch events, runs to completion without
   that process. An initiator-to-be thus acknowledges the current
   broadcast while queueing for the lock — the same argument that keeps
   the paper protocol's [serialized] mode deadlock-free. *)

open Flush_core

(* The end of responder [me]'s flush of the posted request: meter it and
   set [me]'s done bit. Returns the cost of the status-line atomic that
   publishes the bit. *)
let set_done m ~me (f : Percpu.flush) =
  if Machine.metering m then begin
    let rank =
      if m.Machine.sync_from >= 0 then Machine.distance_rank m m.Machine.sync_from me
      else 0
    in
    record_flush m ~rank ~kind:(kind_of_result f.Percpu.fl_result)
      (Machine.now m - f.Percpu.fl_t0)
  end;
  (* Status-table write: the deliberate all-responders contention point of
     the design. *)
  (Machine.percpu m me).Percpu.sync_done <- true;
  m.Machine.sync_outstanding <- m.Machine.sync_outstanding - 1;
  Cache.atomic m.Machine.line_sync_status ~by:me

(* Responder: read the posted descriptor off the status line, apply it
   with the shared generation-tracked flush, and set our done bit. The
   global lock serializes broadcasts, so at most one posted descriptor
   exists at a time and the None case is unreachable (kept as a no-op for
   robustness against spurious wakeups).

   The whole response is one charge run: the status read as its lead,
   the flush's steps (none when it is skipped, the common case on a big
   machine, where most responders never loaded the mm), then the done-bit
   atomic. [lead] and [visit] are built once per machine. *)
let responder m =
  let line = m.Machine.line_sync_status in
  let visit me phase =
    let f = irq_flush m ~cpu:me in
    if phase = 0 then
      match m.Machine.sync_info with
      | Some info when not (Machine.percpu m me).Percpu.sync_done ->
          let d = flush_begin m f ~cpu:me ~user:(default_user_policy m info) info in
          if d >= 0 then d else set_done m ~me f
      | Some _ | None -> -1
    else if flushing f then begin
      let d = flush_step m ~cpu:me f in
      if d >= 0 then d else set_done m ~me f
    end
    else -1
  in
  ((fun me -> Cache.read line ~by:me), visit)

let irq_id m = shootdown_irq m responder

let perform m ~from ~mm:_ (info : Flush_info.t) token =
  let stats = m.Machine.stats in
  let pcpu = Machine.percpu m from in
  (* One shootdown machine-wide at a time. *)
  Machine.delay m m.Machine.costs.Costs.lock_uncontended;
  Rwsem.down_write m.Machine.ipi_mutex;
  let targets = pcpu.Percpu.scratch_targets in
  Cpuset.copy_into ~dst:targets ~src:m.Machine.all_cpus;
  Cpuset.clear targets from;
  if Cpuset.is_empty targets then begin
    stats.Machine.local_only_flushes <- stats.Machine.local_only_flushes + 1;
    ignore (initiator_flush m ~from ~user:(default_user_policy m info) info);
    Rwsem.up_write m.Machine.ipi_mutex;
    Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token
  end
  else begin
    stats.Machine.shootdowns <- stats.Machine.shootdowns + 1;
    let prep0 = Machine.now m in
    (* Post the descriptor and clear the status table, one line write. *)
    Machine.charge_write m m.Machine.line_sync_status ~by:from;
    m.Machine.sync_info <- Some info;
    m.Machine.sync_from <- from;
    Cpuset.iter (fun c -> (Machine.percpu m c).Percpu.sync_done <- false) targets;
    m.Machine.sync_outstanding <- Cpuset.count targets;
    (* Initiator self-invalidates before kicking anyone. *)
    ignore (initiator_flush m ~from ~user:(default_user_policy m info) info);
    Smp.send_ipis m ~from ~targets ~irq_id:(irq_id m);
    if Machine.metering m then
      record_prep m ~from ~targets (Machine.now m - prep0);
    (* Spin until the whole status table reads done. Every responder that
       sets its done bit also decrements [sync_outstanding], so the count is
       zero exactly when every target's bit is set: one load per poll
       instead of a walk over the targets, and side-effect-free, as
       poll_wait requires. *)
    let ack0 = Machine.now m in
    let all_done () = m.Machine.sync_outstanding = 0 in
    let cpu_t = Machine.cpu m from in
    while not (all_done ()) do
      Cpu.poll_wait cpu_t all_done
    done;
    (* Observing the table pulls the responder-written line back once. *)
    Machine.charge_read m m.Machine.line_sync_status ~by:from;
    if Machine.metering m then begin
      let far =
        Cpuset.fold
          (fun acc c -> Int.max acc (Machine.distance_rank m from c))
          0 targets
      in
      Metrics.record_cycles m.Machine.phases.Machine.ack.(far) (Machine.now m - ack0)
    end;
    (* Retire the post before releasing the lock: the next initiator's
       clear-and-post must never race a responder reading our descriptor. *)
    m.Machine.sync_info <- None;
    m.Machine.sync_from <- -1;
    Machine.charge_write m m.Machine.line_sync_status ~by:from;
    Rwsem.up_write m.Machine.ipi_mutex;
    Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token;
    tracef m ~cpu:from "sync-broadcast complete"
  end

let backend =
  {
    Protocol.reference = false;
    perform;
    responder_pending =
      (fun m ~cpu ->
        (* A posted broadcast this CPU has not applied yet counts as
           outstanding responder work. *)
        Option.is_some m.Machine.sync_info
        && not (Machine.percpu m cpu).Percpu.sync_done);
    quiescent =
      (fun m ~cpu fail ->
        if Option.is_some m.Machine.sync_info then
          fail "sync-broadcast descriptor still posted at quiescence";
        if m.Machine.sync_outstanding <> 0 then
          fail
            (Printf.sprintf "sync-broadcast outstanding count %d at quiescence"
               m.Machine.sync_outstanding);
        if not (Machine.percpu m cpu).Percpu.sync_done then
          fail
            (Printf.sprintf "cpu%d sync-broadcast done bit clear at quiescence" cpu));
  }
