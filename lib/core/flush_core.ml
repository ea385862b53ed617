(* Protocol-independent flush primitives shared by every shootdown backend
   (lib/core/proto_*.ml): the generation-tracked flush function, the local
   full flush, the §3.4 deferred user-PCID machinery and the phase-metering
   helpers. Anything a backend may legitimately differ on is a parameter
   ([~user], and [~eager_user] of the switch-in full flush) — the backends
   themselves carry the policy (see protocol.mli). *)

let actor cpu = Printf.sprintf "cpu%d" cpu

(* [actor] formats eagerly, so check enablement before building it. *)
let tracef m ~cpu fmt =
  let trace = m.Machine.trace in
  if Trace.enabled trace then Trace.emitf trace ~actor:(actor cpu) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

type user_flush = Percpu.user_flush = Eager | Defer | Skip

(* --- phase metering helpers (DESIGN.md §10) --- *)

let kind_of_result = function
  | `Ranged -> Machine.flush_kind_invlpg
  | `Full -> Machine.flush_kind_cr3
  | `Skipped -> Machine.flush_kind_skipped

(* Callers gate on [Machine.metering]. *)
let record_flush m ~rank ~kind dt =
  Metrics.record_cycles
    m.Machine.phases.Machine.flush.(Machine.flush_index ~rank ~kind)
    dt

(* Meter initiator prep (selection + enqueue + ICR writes) against the
   farthest target, same attribution rule as the ack wait. Callers gate on
   [Machine.metering]. *)
let record_prep m ~from ~targets dt =
  let far =
    Cpuset.fold (fun acc c -> Int.max acc (Machine.distance_rank m from c)) 0 targets
  in
  Metrics.record_cycles m.Machine.phases.Machine.prep.(far) dt

(* Full local flush of the kernel PCID. The user PCID full flush is deferred
   to the next return-to-user CR3 load (stock Linux behaviour) unless the
   backend never defers anything ([~eager_user:true], the oracle). *)
let local_full_flush m ~cpu ~eager_user pcpu =
  let tlb = Cpu.tlb (Machine.cpu m cpu) in
  Machine.delay m m.Machine.costs.Costs.cr3_write;
  Tlb.cr3_flush tlb ~pcid:(Percpu.kernel_pcid pcpu.Percpu.curr_asid);
  if m.Machine.opts.Opts.safe then begin
    if eager_user then begin
      Machine.delay m m.Machine.costs.Costs.cr3_write;
      Tlb.cr3_flush tlb ~pcid:(Percpu.user_pcid pcpu.Percpu.curr_asid)
    end
    else pcpu.Percpu.pending_user <- Percpu.Full_flush
  end

(* A flush is skipped when the address space is not loaded here (raced
   with a context switch; the switch-in generation check covers it) or
   this CPU's generation is already current. Returns the [Some] cell of
   [loaded_mm] itself, so the check allocates nothing. *)
let flush_due m ~cpu (info : Flush_info.t) =
  let pcpu = Machine.percpu m cpu in
  match pcpu.Percpu.loaded_mm with
  | Some mm as due
    when Mm_struct.id mm = info.Flush_info.mm_id
         && pcpu.Percpu.asids.(pcpu.Percpu.curr_asid).Percpu.gen_seen
            < info.Flush_info.new_tlb_gen ->
      due
  | Some _ | None -> None

(* --- the generation-tracked flush as the steps of a charge run ---

   [flush_begin] makes the due check when the run reaches the request and
   returns the cost of the mm generation-line read; [flush_step] then runs
   at each later boundary: the decision between a full and a ranged
   flush, the CR3 write or each INVLPG/INVPCID item, and last the
   deferral and the [gen_seen] update. A negative cost means the flush is
   over at this boundary, and the caller's run goes on from there. The
   state between boundaries lives in a [Percpu.flush] record. *)

let step_idle = 0
let step_decide = 1
let step_cr3 = 2
let step_item = 3

let flushing (f : Percpu.flush) = f.Percpu.fl_step <> step_idle

let flush_begin m (f : Percpu.flush) ~cpu ~user (info : Flush_info.t) =
  f.Percpu.fl_t0 <- Machine.now m;
  match flush_due m ~cpu info with
  | None ->
      let stats = m.Machine.stats in
      stats.Machine.flush_requests_skipped <- stats.Machine.flush_requests_skipped + 1;
      f.Percpu.fl_result <- `Skipped;
      f.Percpu.fl_step <- step_idle;
      -1
  | Some mm as due ->
      let pcpu = Machine.percpu m cpu in
      f.Percpu.fl_info <- info;
      f.Percpu.fl_user <- user;
      f.Percpu.fl_mm <- due;
      f.Percpu.fl_slot <- pcpu.Percpu.asids.(pcpu.Percpu.curr_asid);
      f.Percpu.fl_step <- step_decide;
      (* Read the mm's current generation (one contended line). *)
      Cache.read (Mm_struct.line mm) ~by:cpu

let trace_flush m ~cpu (f : Percpu.flush) ~full ~entries =
  if Machine.tracing m then
    Machine.trace_event m ~cpu
      (Trace.Tlb_flush
         {
           mm_id = f.Percpu.fl_info.Flush_info.mm_id;
           full;
           entries;
           gen = f.Percpu.fl_slot.Percpu.gen_seen;
         })

(* The cost of ranged item [fl_i]: an INVLPG per page in the kernel PCID,
   then under PTI, when eager, an INVPCID per page in the user PCID. Past
   the last item, the deferral and the generation update end the flush. *)
let next_item m ~cpu (f : Percpu.flush) =
  let info = f.Percpu.fl_info in
  if f.Percpu.fl_i < f.Percpu.fl_n then
    if f.Percpu.fl_i < info.Flush_info.pages then m.Machine.costs.Costs.invlpg
    else m.Machine.costs.Costs.invpcid_single
  else begin
    let opts = m.Machine.opts and stats = m.Machine.stats in
    if opts.Opts.safe && f.Percpu.fl_user = Defer then begin
      stats.Machine.in_context_deferrals <- stats.Machine.in_context_deferrals + 1;
      Percpu.defer_user_flush (Machine.percpu m cpu) info
        ~threshold:opts.Opts.full_flush_threshold
    end;
    f.Percpu.fl_slot.Percpu.gen_seen <- info.Flush_info.new_tlb_gen;
    trace_flush m ~cpu f ~full:false ~entries:info.Flush_info.pages;
    f.Percpu.fl_result <- `Ranged;
    f.Percpu.fl_step <- step_idle;
    -1
  end

let decide m ~cpu (f : Percpu.flush) =
  let opts = m.Machine.opts and stats = m.Machine.stats in
  let info = f.Percpu.fl_info in
  let latest_gen =
    match f.Percpu.fl_mm with Some mm -> Mm_struct.tlb_gen mm | None -> 0
  in
  if Machine.tracing m then
    Machine.trace_event m ~cpu
      (Trace.Gen_read { mm_id = info.Flush_info.mm_id; gen = latest_gen });
  let behind = info.Flush_info.new_tlb_gen > f.Percpu.fl_slot.Percpu.gen_seen + 1 in
  if info.Flush_info.full
     || Flush_info.nr_entries info > opts.Opts.full_flush_threshold
     || behind
  then begin
    (* Full flush; fast-forward to the latest generation so queued
       requests can be skipped (the §5.2 "flush storm" shortcut). *)
    if behind && not info.Flush_info.full then
      stats.Machine.full_flush_fallbacks <- stats.Machine.full_flush_fallbacks + 1;
    f.Percpu.fl_latest <- latest_gen;
    f.Percpu.fl_step <- step_cr3;
    m.Machine.costs.Costs.cr3_write
  end
  else begin
    let n = info.Flush_info.pages in
    f.Percpu.fl_asid <- (Machine.percpu m cpu).Percpu.curr_asid;
    f.Percpu.fl_n <- (if opts.Opts.safe && f.Percpu.fl_user = Eager then 2 * n else n);
    f.Percpu.fl_i <- 0;
    f.Percpu.fl_step <- step_item;
    next_item m ~cpu f
  end

let flush_step m ~cpu (f : Percpu.flush) =
  let step = f.Percpu.fl_step in
  if step = step_decide then decide m ~cpu f
  else if step = step_item then begin
    let info = f.Percpu.fl_info and i = f.Percpu.fl_i in
    let tlb = Cpu.tlb (Machine.cpu m cpu) and n = info.Flush_info.pages in
    if i < n then
      Tlb.invlpg tlb
        ~current_pcid:(Percpu.kernel_pcid f.Percpu.fl_asid)
        ~vpn:(Flush_info.nth_vpn info i)
    else
      Tlb.invpcid_addr tlb
        ~pcid:(Percpu.user_pcid f.Percpu.fl_asid)
        ~vpn:(Flush_info.nth_vpn info (i - n));
    f.Percpu.fl_i <- i + 1;
    next_item m ~cpu f
  end
  else if step = step_cr3 then begin
    (* The kernel PCID goes now; under PTI the user PCID's full flush is
       deferred to the next return-to-user CR3 load. *)
    let pcpu = Machine.percpu m cpu in
    Tlb.cr3_flush (Cpu.tlb (Machine.cpu m cpu))
      ~pcid:(Percpu.kernel_pcid pcpu.Percpu.curr_asid);
    if m.Machine.opts.Opts.safe then pcpu.Percpu.pending_user <- Percpu.Full_flush;
    let slot = f.Percpu.fl_slot in
    slot.Percpu.gen_seen <-
      Int.max f.Percpu.fl_latest f.Percpu.fl_info.Flush_info.new_tlb_gen;
    trace_flush m ~cpu f ~full:true ~entries:0;
    f.Percpu.fl_result <- `Full;
    f.Percpu.fl_step <- step_idle;
    -1
  end
  else invalid_arg "Flush_core.flush_step: no flush in progress"

let irq_flush m ~cpu =
  let pcpu = Machine.percpu m cpu in
  if pcpu.Percpu.irq_flush == Percpu.no_flush then
    pcpu.Percpu.irq_flush <- Percpu.new_flush ();
  pcpu.Percpu.irq_flush

(* A process-context flush runs its steps as one run of its own. Its
   record is the CPU's [task_flush], or a fresh one when another process
   on this CPU is suspended in a flush with it. *)
let task_flush m ~cpu =
  let pcpu = Machine.percpu m cpu in
  if pcpu.Percpu.task_flush == Percpu.no_flush then
    pcpu.Percpu.task_flush <- Percpu.new_flush ();
  let f = pcpu.Percpu.task_flush in
  if f.Percpu.fl_busy then Percpu.new_flush () else f

let flush_tlb_func_impl m ~cpu ~user (info : Flush_info.t) =
  let f = task_flush m ~cpu in
  let d = flush_begin m f ~cpu ~user info in
  if d >= 0 then begin
    if f.Percpu.fl_visit == Percpu.no_visit then
      f.Percpu.fl_visit <- (fun cpu _ -> flush_step m ~cpu f);
    f.Percpu.fl_busy <- true;
    Machine.chain_item m ~lead:d cpu f.Percpu.fl_visit;
    f.Percpu.fl_busy <- false
  end;
  f.Percpu.fl_result

(* The initiator's own flush of [info], metered at distance rank 0. *)
let initiator_flush m ~from ~user info =
  let t0 = Machine.now m in
  let result = flush_tlb_func_impl m ~cpu:from ~user info in
  if Machine.metering m then
    record_flush m ~rank:0 ~kind:(kind_of_result result) (Machine.now m - t0);
  result

(* Default user-flush policy for a CPU that is not the initiator (or an
   initiator without the concurrent-flush overlap): defer under §3.4 unless
   page tables are being freed. *)
let default_user_policy m (info : Flush_info.t) =
  if m.Machine.opts.Opts.in_context_flush && not info.Flush_info.freed_tables then Defer
  else Eager

(* loc begin: in-context-flush *)
(* --- the §3.4 deferred user-PCID flush ---

   [pending_begin] takes the CPU's pending deferred flush. Every form but
   a ranged flush with a stack is free and ends there, and it returns -1;
   a ranged one returns the cost of its first step, and [pending_step]
   runs the rest: step [2i] is the cost of item [i] and [2i + 1] its
   INVLPG, for [i < pages]; item [pages] is the LFENCE (Spectre-v1: the
   flush loop's bound must not be speculated past while stale user PTEs
   linger). Past the last step, [pending_done] traces and meters it. *)

let pending_done m ~cpu ~t0 ~full ~entries =
  if Machine.tracing m then
    Machine.trace_event m ~cpu (Trace.Deferred_flush_exec { full; entries });
  (* The §3.4 deferred-to-return execution runs on the deferring CPU
     itself; a near-zero sample (the free CR3 NOFLUSH-bit skip) is the
     optimization's whole point and worth seeing in the p50. *)
  if Machine.metering m then
    record_flush m ~rank:0 ~kind:Machine.flush_kind_deferred (Machine.now m - t0)

let pending_step m ~cpu ~pcid (info : Flush_info.t) k =
  let n = info.Flush_info.pages and costs = m.Machine.costs in
  let i = k / 2 in
  if i > n then -1
  else if k land 1 = 0 then if i < n then costs.Costs.invlpg else costs.Costs.lfence
  else begin
    if i < n then
      Tlb.invlpg
        (Cpu.tlb (Machine.cpu m cpu))
        ~current_pcid:pcid ~vpn:(Flush_info.nth_vpn info i);
    0
  end

(* Takes the CPU's pending flush and runs it when it is free. Returns the
   ranged flush the caller must run as steps from the current user PCID,
   or [No_flush]. *)
let pending_begin m ~cpu ~has_stack =
  let opts = m.Machine.opts in
  if not opts.Opts.safe then Percpu.No_flush
  else begin
    let pcpu = Machine.percpu m cpu in
    match Percpu.take_pending_user pcpu with
    | Percpu.No_flush -> Percpu.No_flush
    | (Percpu.Full_flush | Percpu.Ranged _)
      when (match opts.Opts.fault with Some Opts.Skip_deferred_flush -> true | _ -> false)
      ->
        (* Injected protocol bug for the race detector: the deferred user
           flush is silently dropped, leaving stale user-PCID entries live
           past return-to-user. *)
        tracef m ~cpu "BUG: deferred user flush dropped";
        if Machine.metering m then
          record_flush m ~rank:0 ~kind:Machine.flush_kind_deferred 0;
        Percpu.No_flush
    | Percpu.Ranged _ as ranged when has_stack -> ranged
    | Percpu.Full_flush | Percpu.Ranged _ ->
        (* The return-to-user CR3 load simply skips the NOFLUSH bit: the
           whole user PCID is invalidated for free. With no stack to run
           the INVLPG loop on (e.g. the IRET return path), a ranged flush
           goes the same way. *)
        Tlb.cr3_flush
          (Cpu.tlb (Machine.cpu m cpu))
          ~pcid:(Percpu.user_pcid pcpu.Percpu.curr_asid);
        pending_done m ~cpu ~t0:(Machine.now m) ~full:true ~entries:0;
        Percpu.No_flush
  end

let flush_pending_user m ~cpu ~has_stack =
  match pending_begin m ~cpu ~has_stack with
  | Percpu.Ranged info ->
      let t0 = Machine.now m in
      let pcid = Percpu.user_pcid (Machine.percpu m cpu).Percpu.curr_asid in
      Machine.chain_item m ~lead:(pending_step m ~cpu ~pcid info 0) cpu (fun cpu k ->
          pending_step m ~cpu ~pcid info (k + 1));
      pending_done m ~cpu ~t0 ~full:false ~entries:info.Flush_info.pages
  | Percpu.No_flush | Percpu.Full_flush -> ()

let return_to_user m ~cpu ~has_stack =
  let cpu_t = Machine.cpu m cpu in
  Cpu.quiesce_and_mask cpu_t;
  flush_pending_user m ~cpu ~has_stack;
  Machine.trace_event m ~cpu Trace.User_resume;
  Cpu.set_in_user cpu_t true;
  Cpu.irq_enable cpu_t
(* loc end: in-context-flush *)

(* --- the shootdown IRQ ---

   A backend's responder is a charge run: [lead cpu] makes its first
   charge at handler start, and [visit] its phases. The handler's step
   runs [lead] at phase 0 and [visit] at the phases after it, followed,
   when the IRQ interrupted user mode, by the return-to-user tail: the CPU
   is about to return to user mode, so any flush deferred by §3.4 must
   complete first. The tail is more phases of the same handler, counted
   from the phase where it began, with its state in the CPU's [irq_run].

   The irq record is fixed per machine (the step depends only on [m]; the
   responder CPU is recovered from the [Cpu.t] the dispatch passes in), so
   each backend registers its handler with the APIC once, at the machine's
   first shootdown, and sends every IPI by id — the send path then
   allocates neither irq records nor delivery closures. *)
let shootdown_irq m backend =
  let id = m.Machine.proto_irq_id in
  if id >= 0 then id
  else begin
    let lead, visit = backend m in
    let start cpu =
      let pcpu = Machine.percpu m cpu in
      if pcpu.Percpu.irq_run == Percpu.no_irq_run then
        pcpu.Percpu.irq_run <- Percpu.new_irq_run ()
      else pcpu.Percpu.irq_run.Percpu.tail <- -1;
      lead cpu
    in
    let handler_visit cpu phase =
      let pcpu = Machine.percpu m cpu in
      let r = pcpu.Percpu.irq_run in
      if r.Percpu.tail < 0 then begin
        let d = visit cpu phase in
        if d >= 0 || not (Cpu.irq_from_user pcpu.Percpu.cpu) then d
        else
          match pending_begin m ~cpu ~has_stack:true with
          | Percpu.Ranged info ->
              r.Percpu.tail <- phase;
              r.Percpu.tail_info <- info;
              r.Percpu.tail_t0 <- Machine.now m;
              r.Percpu.tail_pcid <- Percpu.user_pcid pcpu.Percpu.curr_asid;
              pending_step m ~cpu ~pcid:r.Percpu.tail_pcid info 0
          | Percpu.No_flush | Percpu.Full_flush -> -1
      end
      else begin
        let info = r.Percpu.tail_info in
        let k = phase - r.Percpu.tail in
        let d = pending_step m ~cpu ~pcid:r.Percpu.tail_pcid info k in
        if d < 0 then
          pending_done m ~cpu ~t0:r.Percpu.tail_t0 ~full:false
            ~entries:info.Flush_info.pages;
        d
      end
    in
    let step cpu k =
      if k = 0 then start (Cpu.id cpu) else handler_visit (Cpu.id cpu) (k - 1)
    in
    let irq = { Cpu.vector = Smp.tlb_shootdown_vector; maskable = true; step } in
    let id = Apic.register_irq m.Machine.apic irq in
    m.Machine.proto_irq_id <- id;
    id
  end
