type t = {
  cpu_id : Topology.cpu_id;
  eng : Engine.t;
  topo : Topology.t;
  cost : Costs.t;
  safe : bool;
  cpu_tlb : Tlb.t;
  mutable masked : bool;
  pending : irq Queue.t;
  mutable pending_unmaskable : int;
      (* unmaskable entries in [pending]: lets [has_deliverable] answer in
         O(1) — an unmaskable IRQ is deliverable regardless of [masked],
         and with IRQs unmasked any pending IRQ is. *)
  mutable dispatch_tag : int;
      (* engine handler of detached dispatch, -1 until the first one *)
  mutable dispatchers : Process.pool option;
      (* processes that run detached handlers, made with [dispatch_tag] *)
  deferred : irq Queue.t;
      (* scratch for [service_pending]: masked IRQs awaiting re-queue.
         Empty outside a drain; preallocated so drains allocate nothing. *)
  wake : Waitq.t;
  mutable user : bool;
  mutable draining : bool;
  mutable t_interrupted : int;
  mutable t_handled : int;
  mutable t_compute : int;
  mutable from_user_irq : bool;
  mutable irq : irq; (* the IRQ in service, valid while [draining] *)
  mutable irq_started : int;
  mutable irq_was_user : bool;
  mutable service_depth : int;
      (* > 0 while some process is at a service point (compute / spin /
         idle) and will drain the queue itself. *)
  mutable occupancy : int;
      (* processes bound to this CPU. IRQ handlers must never interleave
         with user-mode execution of an occupant, so detached dispatch is
         only legal in kernel context or on an empty CPU. *)
}

and irq = { vector : int; maskable : bool; handler : t -> unit }

(* Dispatch-process names for the common CPU-id range, interned once at
   module init: every machine names the dispatchers of its CPUs, and the
   string is immutable, so machines (and domains) share one table. *)
let dispatch_names =
  Array.init 64 (fun id -> Printf.sprintf "irq-dispatch-cpu%d" id)

let dispatch_name_of id =
  if id < Array.length dispatch_names then dispatch_names.(id)
  else Printf.sprintf "irq-dispatch-cpu%d" id

let no_irq = { vector = -1; maskable = true; handler = ignore }

let create eng topo cost ~id ~safe ?tlb_capacity () =
  if id < 0 || id >= Topology.n_cpus topo then
    invalid_arg (Printf.sprintf "Cpu.create: id %d out of range" id);
  {
    cpu_id = id;
    eng;
    topo;
    cost;
    safe;
    cpu_tlb = Tlb.create ?capacity:tlb_capacity ();
    masked = false;
    pending = Queue.create ();
    pending_unmaskable = 0;
    dispatch_tag = -1;
    dispatchers = None;
    deferred = Queue.create ();
    wake = Waitq.create eng;
    user = true;
    draining = false;
    t_interrupted = 0;
    t_handled = 0;
    t_compute = 0;
    from_user_irq = false;
    irq = no_irq;
    irq_started = 0;
    irq_was_user = false;
    service_depth = 0;
    occupancy = 0;
  }

let id t = t.cpu_id
let draining t = t.draining

let busy_dispatchers t =
  match t.dispatchers with Some pool -> Process.busy_members pool | None -> 0

let irq_from_user t = t.from_user_irq
let tlb t = t.cpu_tlb
let engine t = t.eng
let costs t = t.cost
let in_user t = t.user
let irqs_masked t = t.masked
let pending_irqs t = Queue.length t.pending
let interrupted_cycles t = t.t_interrupted
let irqs_handled t = t.t_handled
let compute_cycles t = t.t_compute

let reset_accounting t =
  t.t_interrupted <- 0;
  t.t_handled <- 0;
  t.t_compute <- 0

let deliverable t irq = (not irq.maskable) || not t.masked

let has_deliverable t =
  t.pending_unmaskable > 0 || ((not t.masked) && Queue.length t.pending > 0)

(* Would a [service_pending] call right now actually run handlers? While a
   drain is in progress (e.g. a detached irq-dispatch interleaved on this
   CPU is mid-handler), it would be a guarded no-op — so a poll boundary
   with deliverable IRQs but [draining] set has nothing to do, exactly as
   the pre-fused loops found when they woke, no-opped and re-slept. Resume
   conditions for fused ticks use this so such boundaries stay inside the
   engine handler. *)
let serviceable t = has_deliverable t && not t.draining

(* One IRQ is an entry delay, the handler and an exit delay. The prologue
   and epilogue around them are shared by the two ways an IRQ runs: inside
   a process at a service point ([run_irq]), and detached, driven by the
   CPU's dispatch handler ([dispatch]). Only one drain runs per CPU at a
   time ([draining]), so the IRQ in service lives in the CPU record and
   [from_user_irq] is false outside a handler. Entry cost depends on
   mitigation mode and on the privilege we interrupt; entry + handler +
   exit is charged to interrupted_cycles. The prologue returns the entry
   cost. *)
let irq_prologue t irq =
  let was_user = t.user in
  t.irq <- irq;
  t.irq_started <- Engine.now t.eng;
  t.irq_was_user <- was_user;
  t.user <- false;
  t.from_user_irq <- was_user;
  Costs.irq_entry t.cost ~safe:t.safe ~from_user:was_user

let irq_epilogue t =
  t.user <- t.irq_was_user;
  t.from_user_irq <- false;
  t.t_handled <- t.t_handled + 1;
  t.t_interrupted <- t.t_interrupted + (Engine.now t.eng - t.irq_started)

let run_irq t irq =
  Process.delay t.eng (irq_prologue t irq);
  irq.handler t;
  Process.delay t.eng t.cost.irq_exit;
  irq_epilogue t

(* Deferral parks masked IRQs on the preallocated per-CPU [deferred] queue
   (empty outside a drain), so the overwhelmingly common
   deliver-everything drain allocates nothing. An unmaskable IRQ is always
   deliverable, so deferral never has to put the counter back. On an
   exception the deferred IRQs (all maskable, so no counter adjustment)
   go back on [pending], so the field is empty again for the next drain. *)
let pop_pending t =
  let irq = Queue.pop t.pending in
  if not irq.maskable then t.pending_unmaskable <- t.pending_unmaskable - 1;
  irq

let end_drain t =
  Queue.transfer t.deferred t.pending;
  t.draining <- false

let service_pending t =
  if not t.draining then begin
    t.draining <- true;
    (try
       while not (Queue.is_empty t.pending) do
         let irq = pop_pending t in
         if deliverable t irq then run_irq t irq else Queue.push irq t.deferred
       done
     with e ->
       end_drain t;
       raise e);
    end_drain t
  end

(* Detached dispatch: the same drain, driven by engine events on the CPU's
   dispatch handler. Event [a = 0] starts the drain, [1] is an entry
   boundary and [2] an exit boundary; each is scheduled exactly where a
   process delaying through entry and exit would wake, so event order is
   that of [run_irq]'s delays. Only the
   handler body, which may suspend, runs in a pooled process, started
   synchronously at its entry boundary. When a delay is free ([try_advance]
   succeeds, or it costs nothing) the drain goes straight on: after a
   handler, in the same process, to the next IRQ's handler.

   [next_irq] pops up to the next deliverable IRQ and runs its prologue. It
   returns [true] when the handler is due now, [false] when the entry
   boundary is scheduled or the drain is over. *)
let rec next_irq t =
  if Queue.is_empty t.pending then begin
    end_drain t;
    false
  end
  else begin
    let irq = pop_pending t in
    if deliverable t irq then begin
      let entry = irq_prologue t irq in
      if entry = 0 || Engine.try_advance t.eng ~cycles:entry then true
      else begin
        Engine.schedule_tag t.eng ~delay:entry ~tag:t.dispatch_tag ~a:1 ~b:0;
        false
      end
    end
    else begin
      Queue.push irq t.deferred;
      next_irq t
    end
  end

(* The pooled processes' body: handlers, with the exit delays between them
   that take the fast path. *)
let run_handlers t () =
  try
    let go = ref true in
    while !go do
      t.irq.handler t;
      let exit = t.cost.irq_exit in
      if exit = 0 || Engine.try_advance t.eng ~cycles:exit then begin
        irq_epilogue t;
        go := next_irq t
      end
      else begin
        Engine.schedule_tag t.eng ~delay:exit ~tag:t.dispatch_tag ~a:2 ~b:0;
        go := false
      end
    done
  with e ->
    end_drain t;
    raise e

let dispatch t a =
  let handler_due =
    match a with
    | 0 ->
        if t.draining then false
        else begin
          t.draining <- true;
          next_irq t
        end
    | 1 -> true
    | _ ->
        irq_epilogue t;
        next_irq t
  in
  if handler_due then
    match t.dispatchers with Some pool -> Process.run_pooled pool | None -> ()

let in_service_window t f =
  t.service_depth <- t.service_depth + 1;
  match f () with
  | v ->
      t.service_depth <- t.service_depth - 1;
      v
  | exception e ->
      t.service_depth <- t.service_depth - 1;
      raise e

(* Detached dispatch: legal only when no service point will drain soon AND
   the CPU is not executing user code (handlers exclude user-mode
   execution; kernel code — running or blocked — may be interleaved). The
   drain starts at an engine event at the current instant, after the
   events already due now. *)
let maybe_dispatch t =
  if
    t.service_depth = 0
    && (t.occupancy = 0 || not t.user)
    && (not t.draining)
    && has_deliverable t
  then begin
    if t.dispatch_tag < 0 then begin
      let name = dispatch_name_of t.cpu_id in
      t.dispatchers <- Some (Process.pool t.eng ~name (run_handlers t));
      t.dispatch_tag <- Engine.register_handler t.eng (fun a _ -> dispatch t a)
    end;
    Engine.schedule_tag t.eng ~delay:0 ~tag:t.dispatch_tag ~a:0 ~b:0
  end

let post_irq t irq =
  Queue.push irq t.pending;
  if not irq.maskable then t.pending_unmaskable <- t.pending_unmaskable + 1;
  Waitq.signal_all t.wake;
  maybe_dispatch t

let set_in_user t b =
  t.user <- b;
  (* Entering the kernel unblocks detached dispatch of anything pending. *)
  if not b then maybe_dispatch t

let occupy t = t.occupancy <- t.occupancy + 1

let vacate t =
  t.occupancy <- t.occupancy - 1;
  if t.occupancy < 0 then invalid_arg "Cpu.vacate: not occupied";
  maybe_dispatch t

let irq_disable t = t.masked <- true

let quiesce_and_mask t =
  t.masked <- true;
  while t.draining do
    Process.delay t.eng t.cost.spin_poll
  done

let irq_enable t =
  t.masked <- false;
  if has_deliverable t then service_pending t

let compute t ?(quantum = 200) cycles =
  if cycles < 0 then invalid_arg "Cpu.compute: negative cycles";
  in_service_window t (fun () ->
      let remaining = ref cycles in
      while !remaining > 0 do
        if has_deliverable t then service_pending t;
        (* One suspension spans every consecutive idle quantum: each
           boundary is still its own engine event at the old time, but only
           a boundary with a deliverable IRQ — or the end of the span —
           resumes the process. Accounting accrues at resume, which is
           equivalent: the only mid-span observers are IRQ handlers, and
           those run after resume (at the loop head) here as before. *)
        let chunk0 = Int.min quantum !remaining in
        let left = ref (!remaining - chunk0) in
        Process.tick_sleep t.eng ~first:chunk0 (fun () ->
            if !left = 0 || serviceable t then 0
            else begin
              let c = Int.min quantum !left in
              left := !left - c;
              c
            end);
        let slept = !remaining - !left in
        t.t_compute <- t.t_compute + slept;
        remaining := !left
      done;
      if has_deliverable t then service_pending t)

let spin_until t cond =
  in_service_window t (fun () ->
      let rec loop () =
        if not (cond ()) then begin
          if has_deliverable t then service_pending t;
          if not (cond ()) then begin
            Process.tick_sleep t.eng ~first:t.cost.spin_poll (fun () ->
                if cond () || serviceable t then 0 else t.cost.spin_poll);
            loop ()
          end
        end
      in
      loop ())

(* Spin-wait loops call this once per [spin_poll] window, which makes it
   the single hottest function in the shootdown benches — hence the inlined
   service window (no closure, no Fun.protect). *)
let poll t =
  t.service_depth <- t.service_depth + 1;
  (try
     if has_deliverable t then service_pending t;
     Process.delay t.eng t.cost.spin_poll
   with e ->
     t.service_depth <- t.service_depth - 1;
     raise e);
  t.service_depth <- t.service_depth - 1

(* [poll] fused across idle windows: one service check, then poll-boundary
   ticks until [ready ()] holds or an IRQ becomes deliverable at a
   boundary. Timing-identical to calling [poll] in a loop with the same
   exit condition between calls, but the idle boundaries never resume the
   process. The service window stays open for the whole span, as it is
   across [poll]'s sleep, so IRQs posted mid-span wait for a boundary
   rather than spawning a detached dispatch. *)
let poll_wait t ready =
  t.service_depth <- t.service_depth + 1;
  (try
     if has_deliverable t then service_pending t;
     Process.tick_sleep t.eng ~first:t.cost.spin_poll (fun () ->
         if ready () || serviceable t then 0 else t.cost.spin_poll)
   with e ->
     t.service_depth <- t.service_depth - 1;
     raise e);
  t.service_depth <- t.service_depth - 1

let idle_wait t =
  in_service_window t (fun () ->
      if not (has_deliverable t) then Waitq.wait t.wake;
      service_pending t)
