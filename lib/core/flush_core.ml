(* Protocol-independent flush primitives shared by every shootdown backend
   (lib/core/proto_*.ml): the generation-tracked flush function, the local
   full flush, the §3.4 deferred user-PCID machinery and the phase-metering
   helpers. Anything a backend may legitimately differ on is a parameter
   ([~user], [~eager_user]) — the backends themselves carry the policy (see
   protocol.mli). *)

let actor cpu = Printf.sprintf "cpu%d" cpu

(* [actor] formats eagerly, so check enablement before building it. *)
let tracef m ~cpu fmt =
  let trace = m.Machine.trace in
  if Trace.enabled trace then Trace.emitf trace ~actor:(actor cpu) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

(* How the user-PCID half of a flush is handled under PTI. *)
type user_flush = Eager | Defer | Skip

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

let flush_tlb_func_impl m ~cpu ~user ~eager_user (info : Flush_info.t) =
  let opts = m.Machine.opts and costs = m.Machine.costs and stats = m.Machine.stats in
  match flush_due m ~cpu info with
  | None ->
      stats.Machine.flush_requests_skipped <- stats.Machine.flush_requests_skipped + 1;
      `Skipped
  | Some mm ->
      let pcpu = Machine.percpu m cpu in
      let tlb = Cpu.tlb (Machine.cpu m cpu) in
      let slot = pcpu.Percpu.asids.(pcpu.Percpu.curr_asid) in
      (* Read the mm's current generation (one contended line). *)
      Machine.charge_read m (Mm_struct.line mm) ~by:cpu;
      let latest_gen = Mm_struct.tlb_gen mm in
      if Machine.tracing m then
        Machine.trace_event m ~cpu
          (Trace.Gen_read { mm_id = info.Flush_info.mm_id; gen = latest_gen });
      let behind = info.Flush_info.new_tlb_gen > slot.Percpu.gen_seen + 1 in
      if info.Flush_info.full
         || Flush_info.nr_entries info > opts.Opts.full_flush_threshold
         || behind
      then begin
        (* Full flush; fast-forward to the latest generation so queued
           requests can be skipped (the §5.2 "flush storm" shortcut). *)
        if behind && not info.Flush_info.full then
          stats.Machine.full_flush_fallbacks <- stats.Machine.full_flush_fallbacks + 1;
        local_full_flush m ~cpu ~eager_user pcpu;
        slot.Percpu.gen_seen <- Int.max latest_gen info.Flush_info.new_tlb_gen;
        if Machine.tracing m then
          Machine.trace_event m ~cpu
            (Trace.Tlb_flush
               {
                 mm_id = info.Flush_info.mm_id;
                 full = true;
                 entries = 0;
                 gen = slot.Percpu.gen_seen;
               });
        `Full
      end
      else begin
        (* One charge run: an INVLPG per page in the kernel PCID, then
           under PTI, when eager, an INVPCID per page in the user PCID. *)
        let n = info.Flush_info.pages in
        let kernel_pcid = Percpu.kernel_pcid pcpu.Percpu.curr_asid in
        let user_pcid = Percpu.user_pcid pcpu.Percpu.curr_asid in
        let eager = opts.Opts.safe && user = Eager in
        Machine.chain_upto m (if eager then 2 * n else n) ~phases:2 (fun i phase ->
            if i < n then
              if phase = 0 then costs.Costs.invlpg
              else begin
                let vpn = Flush_info.nth_vpn info i in
                Tlb.invlpg tlb ~current_pcid:kernel_pcid ~vpn;
                0
              end
            else if phase = 0 then costs.Costs.invpcid_single
            else begin
              let vpn = Flush_info.nth_vpn info (i - n) in
              Tlb.invpcid_addr tlb ~pcid:user_pcid ~vpn;
              0
            end);
        if opts.Opts.safe && user = Defer then begin
          stats.Machine.in_context_deferrals <- stats.Machine.in_context_deferrals + 1;
          Percpu.defer_user_flush pcpu info ~threshold:opts.Opts.full_flush_threshold
        end;
        slot.Percpu.gen_seen <- info.Flush_info.new_tlb_gen;
        if Machine.tracing m then
          Machine.trace_event m ~cpu
            (Trace.Tlb_flush
               {
                 mm_id = info.Flush_info.mm_id;
                 full = false;
                 entries = n;
                 gen = slot.Percpu.gen_seen;
               });
        `Ranged
      end

(* The initiator's own flush of [info], metered at distance rank 0. *)
let initiator_flush m ~from ~user info =
  let t0 = Machine.now m in
  let result = flush_tlb_func_impl m ~cpu:from ~user ~eager_user:false info in
  if Machine.metering m then
    record_flush m ~rank:0 ~kind:(kind_of_result result) (Machine.now m - t0);
  result

(* The irq record is fixed per machine (the handler depends only on [m];
   the responder CPU is recovered from the [Cpu.t] the dispatcher passes
   in), so each backend registers its handler with the APIC once, at the
   machine's first shootdown, and sends every IPI by id — the send path
   then allocates neither irq records nor delivery closures. *)
let shootdown_irq m handler =
  let id = m.Machine.proto_irq_id in
  if id >= 0 then id
  else begin
    let handler = handler m in
    let irq =
      {
        Cpu.vector = Smp.tlb_shootdown_vector;
        maskable = true;
        handler = (fun cpu -> handler ~me:(Cpu.id cpu) cpu);
      }
    in
    let id = Apic.register_irq m.Machine.apic irq in
    m.Machine.proto_irq_id <- id;
    id
  end

(* Default user-flush policy for a CPU that is not the initiator (or an
   initiator without the concurrent-flush overlap): defer under §3.4 unless
   page tables are being freed. *)
let default_user_policy m (info : Flush_info.t) =
  if m.Machine.opts.Opts.in_context_flush && not info.Flush_info.freed_tables then Defer
  else Eager

let flush_pending_user m ~cpu ~has_stack =
  let opts = m.Machine.opts and costs = m.Machine.costs in
  if opts.Opts.safe then begin
    let pcpu = Machine.percpu m cpu in
    let tlb = Cpu.tlb (Machine.cpu m cpu) in
    let user_pcid = Percpu.user_pcid pcpu.Percpu.curr_asid in
    let pending = Percpu.take_pending_user pcpu in
    let t0 = Machine.now m in
    (match pending with
    | Percpu.No_flush -> ()
    | (Percpu.Full_flush | Percpu.Ranged _)
      when (match opts.Opts.fault with Some Opts.Skip_deferred_flush -> true | _ -> false)
      ->
        (* Injected protocol bug for the race detector: the deferred user
           flush is silently dropped, leaving stale user-PCID entries live
           past return-to-user. *)
        tracef m ~cpu "BUG: deferred user flush dropped"
    | Percpu.Full_flush ->
        (* The return-to-user CR3 load simply skips the NOFLUSH bit: the
           whole user PCID is invalidated for free. *)
        Tlb.cr3_flush tlb ~pcid:user_pcid;
        if Machine.tracing m then
          Machine.trace_event m ~cpu
            (Trace.Deferred_flush_exec { full = true; entries = 0 })
    | Percpu.Ranged info ->
        if not has_stack then begin
          (* No stack to run the INVLPG loop on (e.g. IRET return path). *)
          Tlb.cr3_flush tlb ~pcid:user_pcid;
          if Machine.tracing m then
            Machine.trace_event m ~cpu
              (Trace.Deferred_flush_exec { full = true; entries = 0 })
        end
        else begin
          (* One charge run: an INVLPG per page, then an LFENCE (item [n]):
             Spectre-v1, the flush loop's bound must not be speculated past
             while stale user PTEs linger. *)
          let n = info.Flush_info.pages in
          Machine.chain_upto m (n + 1) ~phases:2 (fun i phase ->
              if phase = 0 then if i < n then costs.Costs.invlpg else costs.Costs.lfence
              else begin
                if i < n then
                  Tlb.invlpg tlb ~current_pcid:user_pcid ~vpn:(Flush_info.nth_vpn info i);
                0
              end);
          if Machine.tracing m then
            Machine.trace_event m ~cpu
              (Trace.Deferred_flush_exec { full = false; entries = n })
        end);
    match pending with
    | Percpu.No_flush -> ()
    | Percpu.Full_flush | Percpu.Ranged _ ->
        (* The §3.4 deferred-to-return execution runs on the deferring CPU
           itself; a near-zero sample (the free CR3 NOFLUSH-bit skip) is
           the optimization's whole point and worth seeing in the p50. *)
        if Machine.metering m then
          record_flush m ~rank:0 ~kind:Machine.flush_kind_deferred (Machine.now m - t0)
  end

let return_to_user m ~cpu ~has_stack =
  let cpu_t = Machine.cpu m cpu in
  Cpu.quiesce_and_mask cpu_t;
  flush_pending_user m ~cpu ~has_stack;
  Machine.trace_event m ~cpu Trace.User_resume;
  Cpu.set_in_user cpu_t true;
  Cpu.irq_enable cpu_t
