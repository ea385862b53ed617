type t = {
  cpu_id : Topology.cpu_id;
  eng : Engine.t;
  topo : Topology.t;
  cost : Costs.t;
  safe : bool;
  cpu_tlb : Tlb.t;
  mutable masked : bool;
  pending : ring;
  mutable pending_unmaskable : int;
      (* unmaskable entries in [pending]: lets [has_deliverable] answer in
         O(1) — an unmaskable IRQ is deliverable regardless of [masked],
         and with IRQs unmasked any pending IRQ is. *)
  mutable dispatch_tag : int;
      (* engine handler of detached dispatch, -1 until the first one *)
  deferred : ring;
      (* scratch for a drain: masked IRQs awaiting re-queue. Empty outside
         a drain; kept across drains so they allocate nothing. *)
  mutable user : bool;
  mutable draining : bool;
  mutable t_interrupted : int;
  mutable t_handled : int;
  mutable t_compute : int;
  mutable from_user_irq : bool;
  mutable irq : irq; (* the IRQ in service, [no_irq] between IRQs *)
  mutable phase : int; (* its handler's next step, or -1 once its exit is due *)
  mutable irq_started : int;
  mutable irq_was_user : bool;
  mutable service_depth : int;
      (* > 0 while some process is at a service point (compute / spin /
         idle) and will drain the queue itself. *)
  mutable occupancy : int;
      (* processes bound to this CPU. IRQ handlers must never interleave
         with user-mode execution of an occupant, so detached dispatch is
         only legal in kernel context or on an empty CPU. *)
  mutable can_service : unit -> bool;
      (* [serviceable], the spins' wake test, built at the first spin *)
  mutable drain_visit : int -> int -> int;
      (* [drain] as a charge-run visit, built at the first service-point
         drain *)
}

and irq = { vector : int; maskable : bool; step : t -> int -> int }

(* A FIFO of IRQs in a power-of-two array, doubled when full, so pushes and
   pops allocate nothing once it has grown to the most IRQs ever waiting
   at once. *)
and ring = { mutable buf : irq array; mutable head : int; mutable len : int }

let no_irq = { vector = -1; maskable = true; step = (fun _ _ -> -1) }
let new_ring () = { buf = [||]; head = 0; len = 0 }

let ring_push r irq =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let bigger = Array.make (Int.max 8 (2 * cap)) no_irq in
    for i = 0 to r.len - 1 do
      bigger.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- bigger;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- irq;
  r.len <- r.len + 1

(* The oldest IRQ, its cell cleared; the ring must not be empty. *)
let ring_pop r =
  let irq = r.buf.(r.head) in
  r.buf.(r.head) <- no_irq;
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  irq

(* Append [src]'s IRQs to [dst] in order, leaving [src] empty. *)
let ring_transfer src dst =
  while src.len > 0 do
    ring_push dst (ring_pop src)
  done

let never () = false
let always () = true

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
    pending = new_ring ();
    pending_unmaskable = 0;
    dispatch_tag = -1;
    deferred = new_ring ();
    user = true;
    draining = false;
    t_interrupted = 0;
    t_handled = 0;
    t_compute = 0;
    from_user_irq = false;
    irq = no_irq;
    phase = 0;
    irq_started = 0;
    irq_was_user = false;
    service_depth = 0;
    occupancy = 0;
    can_service = never;
    drain_visit = Process.no_visit;
  }

let id t = t.cpu_id
let draining t = t.draining

let irq_from_user t = t.from_user_irq
let tlb t = t.cpu_tlb
let in_user t = t.user
let pending_irqs t = t.pending.len
let interrupted_cycles t = t.t_interrupted
let irqs_handled t = t.t_handled
let compute_cycles t = t.t_compute

let deliverable t irq = (not irq.maskable) || not t.masked

let has_deliverable t =
  t.pending_unmaskable > 0 || ((not t.masked) && t.pending.len > 0)

(* Would a [service_pending] call right now actually run handlers? While a
   drain is in progress (e.g. a detached drain interleaved on this CPU is
   mid-handler), it would be a guarded no-op — so a poll boundary
   with deliverable IRQs but [draining] set has nothing to do, exactly as
   the pre-fused loops found when they woke, no-opped and re-slept. Resume
   conditions for fused ticks use this so such boundaries stay inside the
   engine handler. *)
let serviceable t = has_deliverable t && not t.draining

(* A drain runs the pending IRQs one at a time. One IRQ is an entry
   delay, the handler's steps and an exit delay; entry + handler + exit is
   charged to interrupted_cycles. Entry cost depends on mitigation mode and
   on the privilege we interrupt. Only one drain runs per CPU at a time
   ([draining]), so the IRQ in service and its phase live in the CPU
   record, and [from_user_irq] is false outside a handler.

   [drain] is the whole drain as one step function, called at each of its
   boundaries: it runs the work due there (the next deliverable IRQ's pop
   and entry, a step of the handler, or the exit's epilogue, going
   straight on through zero costs) and returns the cost to the next
   boundary, or -1 once the queue is empty and the drain is over. It has
   two drivers. At a service point the drain is one charge run of the
   servicing process ([service_pending]); detached, the CPU's dispatch
   handler runs it from engine events ([dispatch]). Both wait out each
   cost at the same event times as a [delay] would.

   Deferral parks masked IRQs on the per-CPU [deferred] ring, and both
   rings keep their arrays, so a drain allocates nothing once they have
   grown. An unmaskable IRQ is always deliverable, so deferral never has
   to put the counter back. *)
let end_drain t =
  ring_transfer t.deferred t.pending;
  t.irq <- no_irq;
  t.draining <- false

let rec drain t =
  if t.irq == no_irq then begin
    if t.pending.len = 0 then begin
      end_drain t;
      -1
    end
    else begin
      let irq = ring_pop t.pending in
      if not irq.maskable then t.pending_unmaskable <- t.pending_unmaskable - 1;
      if deliverable t irq then begin
        let was_user = t.user in
        t.irq <- irq;
        t.phase <- 0;
        t.irq_started <- Engine.now t.eng;
        t.irq_was_user <- was_user;
        t.user <- false;
        t.from_user_irq <- was_user;
        let entry = Costs.irq_entry t.cost ~safe:t.safe ~from_user:was_user in
        if entry > 0 then entry else drain t
      end
      else begin
        ring_push t.deferred irq;
        drain t
      end
    end
  end
  else if t.phase >= 0 then begin
    let k = t.phase in
    t.phase <- k + 1;
    let d = t.irq.step t k in
    if d > 0 then d
    else if d = 0 then drain t
    else begin
      t.phase <- -1;
      let exit = t.cost.irq_exit in
      if exit > 0 then exit else drain t
    end
  end
  else begin
    t.user <- t.irq_was_user;
    t.from_user_irq <- false;
    t.t_handled <- t.t_handled + 1;
    t.t_interrupted <- t.t_interrupted + (Engine.now t.eng - t.irq_started);
    t.irq <- no_irq;
    drain t
  end

(* At a service point the whole drain is one charge run of the servicing
   process: at most one suspension. An exception from a handler's step
   ends the drain: the deferred IRQs (all maskable, so no counter
   adjustment) go back on [pending], so the queue is empty again for the
   next drain. *)
let service_pending t =
  if not t.draining then begin
    if t.drain_visit == Process.no_visit then t.drain_visit <- (fun _ _ -> drain t);
    t.draining <- true;
    try Process.chain_item t.eng ~lead:0 t.cpu_id t.drain_visit
    with e ->
      end_drain t;
      raise e
  end

(* Detached: the drain driven by the CPU's dispatch handler, with no
   process at all. Event [a = 0] starts a drain (a no-op while one runs)
   and [1] is a boundary of the running one. A cost whose window is empty
   ([try_advance] succeeds) goes straight on. *)
let rec run_detached t =
  let d = drain t in
  if d > 0 then
    if Engine.try_advance t.eng ~cycles:d then run_detached t
    else Engine.schedule_tag t.eng ~delay:d ~tag:t.dispatch_tag ~a:1 ~b:0

let dispatch t a =
  if a = 1 || not t.draining then begin
    t.draining <- true;
    try run_detached t
    with e ->
      end_drain t;
      raise e
  end

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
    if t.dispatch_tag < 0 then
      t.dispatch_tag <- Engine.register_handler t.eng (fun a _ -> dispatch t a);
    Engine.schedule_tag t.eng ~delay:0 ~tag:t.dispatch_tag ~a:0 ~b:0
  end

let post_irq t irq =
  ring_push t.pending irq;
  if not irq.maskable then t.pending_unmaskable <- t.pending_unmaskable + 1;
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

(* The spins' IRQ test, one closure per CPU. *)
let can_service t =
  if t.can_service == never then t.can_service <- (fun () -> serviceable t);
  t.can_service

(* Wait out a running drain in [spin_poll] polls: an idle spin, each poll a
   chunk end where the drain may be found over. *)
let quiesce_and_mask t =
  t.masked <- true;
  if t.draining then begin
    let poll = t.cost.spin_poll in
    ignore
      (Process.spin t.eng ~quantum:poll ~chunk:poll ~left:poll never (fun () ->
           not t.draining))
  end

let irq_enable t =
  t.masked <- false;
  if has_deliverable t then service_pending t

(* User-mode computation, as a run of chunks of quantum-sized slices: an
   idle spin that wakes at a slice boundary where an IRQ is serviceable or
   at a chunk end where [until ()] holds. The service check at a chunk end
   and the one that starts the next chunk both still run (the second a
   no-op), so a stretch of chunks is timing-identical to calling [compute]
   once per chunk; the service window stays open across the chunk ends,
   where the per-chunk calls close it and reopen it with nothing in
   between. Every slice is compute time. *)
let rec compute_chunks t ~quantum ~chunk until left =
  if has_deliverable t then service_pending t;
  let r = Process.spin t.eng ~quantum ~chunk ~left (can_service t) until in
  t.t_compute <- t.t_compute + Engine.spin_spun t.eng;
  if r > 0 then compute_chunks t ~quantum ~chunk until r
  else if r = 0 then begin
    (* A chunk end with an IRQ to service. *)
    if has_deliverable t then service_pending t;
    if not (until ()) then compute_chunks t ~quantum ~chunk until chunk
  end

let run_chunks t ~quantum ~chunk until =
  if quantum <= 0 then invalid_arg "Cpu.compute: nonpositive quantum";
  t.service_depth <- t.service_depth + 1;
  match compute_chunks t ~quantum ~chunk until chunk with
  | () -> t.service_depth <- t.service_depth - 1
  | exception e ->
      t.service_depth <- t.service_depth - 1;
      raise e

let compute t ?(quantum = 200) cycles =
  if cycles < 0 then invalid_arg "Cpu.compute: negative cycles";
  if cycles > 0 then run_chunks t ~quantum ~chunk:cycles always
  else if has_deliverable t then in_service_window t (fun () -> service_pending t)

let compute_until t ?(quantum = 200) ~chunk until =
  if chunk <= 0 then invalid_arg "Cpu.compute_until: nonpositive chunk";
  if not (until ()) then run_chunks t ~quantum ~chunk until

(* A spin-wait: one service check, then [spin_poll] polls until [ready ()]
   holds or an IRQ becomes deliverable at a poll boundary. The idle
   boundaries never resume the process. The service window stays open for
   the whole span, so IRQs posted mid-span wait for a boundary rather than
   spawning a detached dispatch. *)
let poll_span t ~deadline wq wc =
  t.service_depth <- t.service_depth + 1;
  (try
     if has_deliverable t then service_pending t;
     let poll = t.cost.spin_poll in
     let chunk =
       if deadline = max_int then poll
       else poll * Int.max 1 ((deadline - Engine.now t.eng + poll - 1) / poll)
     in
     ignore (Process.spin t.eng ~quantum:poll ~chunk ~left:chunk wq wc)
   with e ->
     t.service_depth <- t.service_depth - 1;
     raise e);
  t.service_depth <- t.service_depth - 1

(* Every poll is a chunk end: an IRQ to service, else [ready ()]. *)
let poll_wait t ready = poll_span t ~deadline:max_int (can_service t) ready

(* With a deadline, one chunk that ends at the first poll at or past it,
   where the wait is over; every poll tests [ready ()] or an IRQ to
   service. *)
let poll_until t ~deadline ready =
  poll_span t ~deadline (fun () -> ready () || serviceable t) always
