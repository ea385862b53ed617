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

(* The backend's state, one per machine: the protocol-wide status line,
   which also carries the posted descriptor; the flush posted, its
   initiator and the count of responders whose done bit is still clear;
   and the status table's per-CPU done bits. Outside a broadcast nothing
   is posted, [from] is -1, the count is 0 and every bit is set; the
   machine's ipi_mutex serializes the initiators that change them. *)
type state = {
  line : Cache.line;
  mutable info : Flush_info.t option;
  mutable from : int;
  mutable outstanding : int;
  done_bits : bool array;
}

(* The end of responder [me]'s flush of the posted request: meter it and
   set [me]'s done bit. Returns the cost of the status-line atomic that
   publishes the bit. *)
let set_done m st ~me (f : Percpu.flush) =
  if Machine.metering m then begin
    let rank = if st.from >= 0 then Machine.distance_rank m st.from me else 0 in
    record_flush m ~rank ~kind:(kind_of_result f.Percpu.fl_result)
      (Machine.now m - f.Percpu.fl_t0)
  end;
  (* Status-table write: the deliberate all-responders contention point of
     the design. *)
  st.done_bits.(me) <- true;
  st.outstanding <- st.outstanding - 1;
  Cache.atomic st.line ~by:me

(* Responder: read the posted descriptor off the status line, apply it
   with the shared generation-tracked flush, and set our done bit. The
   global lock serializes broadcasts, so at most one posted descriptor
   exists at a time and the None case is unreachable (kept as a no-op for
   robustness against spurious wakeups).

   The whole response is one charge run: the status read as its lead,
   the flush's steps (none when it is skipped, the common case on a big
   machine, where most responders never loaded the mm), then the done-bit
   atomic. [lead] and [visit] are built once per machine. *)
let responder m st =
  let visit me phase =
    let f = irq_flush m ~cpu:me in
    if phase = 0 then
      match st.info with
      | Some info when not st.done_bits.(me) ->
          let d = flush_begin m f ~cpu:me ~user:(default_user_policy m info) info in
          if d >= 0 then d else set_done m st ~me f
      | Some _ | None -> -1
    else if flushing f then begin
      let d = flush_step m ~cpu:me f in
      if d >= 0 then d else set_done m st ~me f
    end
    else -1
  in
  ((fun me -> Cache.read st.line ~by:me), visit)

let perform m st ~responder ~from (info : Flush_info.t) =
  (* One shootdown machine-wide at a time. *)
  Machine.delay m m.Machine.costs.Costs.lock_uncontended;
  Rwsem.down_write m.Machine.ipi_mutex;
  let targets = snapshot_targets m ~from m.Machine.all_cpus in
  let remote = not (Cpuset.is_empty targets) in
  let user = default_user_policy m info in
  if not remote then ignore (initiator_flush m ~from ~user info)
  else begin
    let prep0 = Machine.now m in
    (* Post the descriptor and clear the status table, one line write. *)
    Machine.charge_write m st.line ~by:from;
    st.info <- Some info;
    st.from <- from;
    Cpuset.iter (fun c -> st.done_bits.(c) <- false) targets;
    st.outstanding <- Cpuset.count targets;
    (* Initiator self-invalidates before kicking anyone. *)
    ignore (initiator_flush m ~from ~user info);
    Smp.send_ipis m ~from ~targets ~irq_id:(shootdown_irq m responder);
    if Machine.metering m then
      Smp.record_prep m ~from ~targets (Machine.now m - prep0);
    (* Spin until the whole status table reads done. Every responder that
       sets its done bit also decrements [outstanding], so the count is
       zero exactly when every target's bit is set: one load per poll
       instead of a walk over the targets, and side-effect-free, as
       poll_wait requires. *)
    let ack0 = Machine.now m in
    let all_done () = st.outstanding = 0 in
    let cpu_t = Machine.cpu m from in
    while not (all_done ()) do
      Cpu.poll_wait cpu_t all_done
    done;
    (* Observing the table pulls the responder-written line back once. *)
    Machine.charge_read m st.line ~by:from;
    if Machine.metering m then Smp.record_ack m ~from ~targets (Machine.now m - ack0);
    (* Retire the post before releasing the lock: the next initiator's
       clear-and-post must never race a responder reading our descriptor. *)
    st.info <- None;
    st.from <- -1;
    Machine.charge_write m st.line ~by:from
  end;
  Rwsem.up_write m.Machine.ipi_mutex;
  remote

let create m =
  let st =
    {
      line = Cache.create_line m.Machine.registry;
      info = None;
      from = -1;
      outstanding = 0;
      done_bits = Array.make (Machine.n_cpus m) true;
    }
  in
  let responder m = responder m st in
  {
    Protocol.reference = false;
    perform = (fun ~from ~mm:_ info -> perform m st ~responder ~from info);
    responder_pending =
      (fun ~cpu ->
        (* A posted broadcast this CPU has not applied yet counts as
           outstanding responder work. *)
        Option.is_some st.info && not st.done_bits.(cpu));
    quiescent =
      (fun ~cpu fail ->
        if Option.is_some st.info then
          fail "sync-broadcast descriptor still posted at quiescence";
        if st.outstanding <> 0 then
          fail
            (Printf.sprintf "sync-broadcast outstanding count %d at quiescence"
               st.outstanding);
        if not st.done_bits.(cpu) then
          fail
            (Printf.sprintf "cpu%d sync-broadcast done bit clear at quiescence" cpu));
  }
