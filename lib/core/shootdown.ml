(* The TLB shootdown entry points, dispatching to the protocol backend the
   machine's Opts.protocol selects (DESIGN.md §13). Terminology matches the
   paper: the "initiator" runs flush_tlb_mm_range; "responders" run the
   backend's IPI handler. The shared flush logic with Linux's generation
   bookkeeping lives in Flush_core; protocol-specific behaviour — perform,
   the IPI handler, flush decisions, ack tracking — lives behind the
   Protocol interface, one backend per constructor. *)

open Flush_core

(* The single Opts.protocol dispatch: the machine's backend instance,
   built at its first use. Every protocol-conditional in this module flows
   through the hooks it returns. *)
let backend m =
  let b = m.Machine.backend in
  if b != Protocol.unset then b
  else begin
    let b =
      match m.Machine.opts.Opts.protocol with
      | Opts.Paper _ -> Proto_paper.create m
      | Opts.Oracle -> Proto_oracle.create m
      | Opts.Sync_broadcast -> Proto_sync.create m
      | Opts.Queue_spin -> Proto_queue.create m
    in
    m.Machine.backend <- b;
    b
  end

let flush_pending_user = Flush_core.flush_pending_user
let return_to_user = Flush_core.return_to_user

(* One complete shootdown for [info], generation already bumped: the
   backend's round, or the lazy strawman's local flush; then its count and
   the close of its checker window, which happen here and nowhere else.
   [~local_flush:false] is §4.1's CoW round, whose caller has replaced the
   local flush: its knob exists only in the paper payload, so it runs the
   paper round, and with no remote target it counts as nothing. *)
let perform_round m ~from ~mm ~local_flush (info : Flush_info.t) token =
  let b = backend m in
  let sent =
    if not local_flush then Proto_paper.round m ~from ~mm ~local_flush info
    else
      match m.Machine.opts.Opts.fault with
      | Some Opts.Lazy_strawman when not b.Protocol.reference ->
          (* LATR-style strawman: flush locally, never notify remote CPUs,
             and return as if the flush were complete. The Checker flags
             the stale accesses this permits. *)
          let user = default_user_policy m info in
          ignore (flush_tlb_func_impl m ~cpu:from ~user info);
          false
      | Some (Opts.Lazy_strawman | Opts.Skip_deferred_flush) | None ->
          b.Protocol.perform ~from ~mm info
  in
  let stats = m.Machine.stats in
  if sent then stats.Machine.shootdowns <- stats.Machine.shootdowns + 1
  else if local_flush then
    stats.Machine.local_only_flushes <- stats.Machine.local_only_flushes + 1;
  Machine.end_window m ~cpu:from ~mm_id:info.Flush_info.mm_id token;
  if sent then tracef m ~cpu:from "shootdown complete"

let perform m ~from ~mm info token =
  perform_round m ~from ~mm ~local_flush:true info token

(* The start of every request: bump [mm]'s generation (one atomic RMW on
   its line), build the request for the new generation — the whole mm
   when [full], else [pages] pages from [start_vpn] — open its checker
   window and hand both to [k], a toplevel function, so the call
   allocates no closure. *)
let request m ~from ~mm ~full ~start_vpn ~pages ~stride ~freed_tables k =
  Machine.charge_atomic m (Mm_struct.line mm) ~by:from;
  let new_tlb_gen = Mm_struct.bump_tlb_gen mm in
  let mm_id = Mm_struct.id mm in
  if Machine.tracing m then
    Machine.trace_event m ~cpu:from (Trace.Gen_bump { mm_id; gen = new_tlb_gen });
  let info =
    if full then Flush_info.full ~mm_id ~freed_tables ~new_tlb_gen
    else Flush_info.ranged ~mm_id ~start_vpn ~pages ~stride ~freed_tables ~new_tlb_gen
  in
  k m ~from ~mm info (Machine.begin_window m ~cpu:from info)

(* A ranged request: performed now, or under §4.2 left to the
   mmap_sem-release barrier. *)
let perform_or_defer m ~from ~mm (info : Flush_info.t) token =
  let knobs = Opts.knobs m.Machine.opts and stats = m.Machine.stats in
  let pcpu = Machine.percpu m from in
  if knobs.Opts.userspace_batching && pcpu.Percpu.batched_mode
     && not info.Flush_info.freed_tables
  then begin
    (* loc begin: batching *)
    (* §4.2: defer the flush to the mmap_sem-release barrier. Flushes that
       free page tables are never deferred: the tables must be gone from
       every TLB before their pages are recycled. Only batch_slots (4)
       flush_tlb_info records exist; when they are full the accumulated
       batch is flushed eagerly — deferral is bounded, which is why the
       paper sees at most ~1.18x from batching, not a flush amnesty. *)
    stats.Machine.batched_deferrals <- stats.Machine.batched_deferrals + 1;
    if List.length pcpu.Percpu.batch >= knobs.Opts.batch_slots then begin
      pcpu.Percpu.batch_overflowed <- true;
      let overflow = List.rev pcpu.Percpu.batch in
      pcpu.Percpu.batch <- [];
      List.iter (fun (i, tok) -> perform m ~from ~mm i tok) overflow
    end;
    pcpu.Percpu.batch <- (info, token) :: pcpu.Percpu.batch
    (* loc end: batching *)
  end
  else perform m ~from ~mm info token

let flush_tlb_mm_range m ~from ~mm ~start_vpn ~pages ~stride ~freed_tables =
  (* The oracle never sends ranged flushes: full, always. *)
  let full =
    (backend m).Protocol.reference || pages > m.Machine.opts.Opts.full_flush_threshold
  in
  request m ~from ~mm ~full ~start_vpn ~pages ~stride ~freed_tables perform_or_defer

let flush_tlb_page m ~from ~mm ~vpn =
  flush_tlb_mm_range m ~from ~mm ~start_vpn:vpn ~pages:1 ~stride:Tlb.Four_k ~freed_tables:false

(* loc begin: cow *)
(* Local "flush": one atomic write to the page. The write-protected old
   PTE cannot be used for a store, so the access walks the tables,
   evicting the stale translation and caching the fresh one — without
   INVLPG's paging-structure-cache invalidation. Remote CPUs sharing the
   mapping still need the shootdown. *)
let cow_round m ~from ~mm (info : Flush_info.t) token =
  let vpn = info.Flush_info.start_vpn and pcpu = Machine.percpu m from in
  let tlb = Cpu.tlb (Machine.cpu m from) and stats = m.Machine.stats in
  Machine.delay m m.Machine.costs.Costs.atomic_op;
  Tlb.drop tlb ~pcid:(Percpu.kernel_pcid pcpu.Percpu.curr_asid) ~vpn;
  if m.Machine.opts.Opts.safe then
    Tlb.drop tlb ~pcid:(Percpu.user_pcid pcpu.Percpu.curr_asid) ~vpn;
  let slot = pcpu.Percpu.asids.(pcpu.Percpu.curr_asid) in
  if slot.Percpu.slot_mm = info.Flush_info.mm_id
     && slot.Percpu.gen_seen = info.Flush_info.new_tlb_gen - 1
  then slot.Percpu.gen_seen <- info.Flush_info.new_tlb_gen;
  stats.Machine.cow_flush_avoided <- stats.Machine.cow_flush_avoided + 1;
  tracef m ~cpu:from "CoW: avoided local flush for vpn %d" vpn;
  perform_round m ~from ~mm ~local_flush:false info token

(* The instruction TLB is not affected by data accesses, so the trick is
   unusable for executable mappings (§4.1). *)
let flush_tlb_page_cow m ~from ~mm ~vpn ~executable =
  if (Opts.knobs m.Machine.opts).Opts.cow_avoid_flush && not executable then
    request m ~from ~mm ~full:false ~start_vpn:vpn ~pages:1 ~stride:Tlb.Four_k
      ~freed_tables:false cow_round
  else flush_tlb_page m ~from ~mm ~vpn
(* loc end: cow *)

let flush_tlb_mm m ~from ~mm =
  request m ~from ~mm ~full:true ~start_vpn:0 ~pages:0 ~stride:Tlb.Four_k
    ~freed_tables:false perform

(* loc begin: batching *)
let flush_batched m ~from ~mm =
  let pcpu = Machine.percpu m from in
  let batch = List.rev pcpu.Percpu.batch in
  pcpu.Percpu.batch <- [];
  pcpu.Percpu.batch_overflowed <- false;
  (* Leave batched mode before flushing so nothing re-defers. *)
  pcpu.Percpu.batched_mode <- false;
  List.iter (fun (info, token) -> perform m ~from ~mm info token) batch
(* loc end: batching *)

let nmi_uaccess_okay m ~cpu =
  let pcpu = Machine.percpu m cpu in
  Option.is_some pcpu.Percpu.loaded_mm
  && (not pcpu.Percpu.lazy_mode)
  (* Lazy mode means current->mm is a borrowed kernel view and shootdowns
     are being skipped for us; batched mode (§4.2) likewise leaves this
     CPU's flushes to the mmap_sem-release barrier. An NMI profiler must
     treat both as off-limits — the interleaving explorer probes this. *)
  && (not pcpu.Percpu.batched_mode)
  && (not pcpu.Percpu.inflight_flush)
  && (not ((backend m).Protocol.responder_pending ~cpu))
  && Percpu.no_pending_user pcpu.Percpu.pending_user

(* Backend-specific quiescence invariants, reported through [fail]; the
   explorer's post-run invariant pass drives this per CPU alongside its
   generic checks (pending_user drained, csq empty, ...). *)
let protocol_quiescent m ~cpu fail = (backend m).Protocol.quiescent ~cpu fail

let check_and_sync_tlb m ~cpu =
  let pcpu = Machine.percpu m cpu in
  match pcpu.Percpu.loaded_mm with
  | None -> ()
  | Some mm ->
      Machine.charge_read m (Mm_struct.line mm) ~by:cpu;
      if Machine.tracing m then
        Machine.trace_event m ~cpu
          (Trace.Gen_read { mm_id = Mm_struct.id mm; gen = Mm_struct.tlb_gen mm });
      let slot = pcpu.Percpu.asids.(pcpu.Percpu.curr_asid) in
      if slot.Percpu.slot_mm = Mm_struct.id mm
         && slot.Percpu.gen_seen < Mm_struct.tlb_gen mm
      then begin
        local_full_flush m ~cpu ~eager_user:(backend m).Protocol.reference pcpu;
        slot.Percpu.gen_seen <- Mm_struct.tlb_gen mm;
        if Machine.tracing m then
          Machine.trace_event m ~cpu
            (Trace.Tlb_flush
               {
                 mm_id = Mm_struct.id mm;
                 full = true;
                 entries = 0;
                 gen = slot.Percpu.gen_seen;
               });
        tracef m ~cpu "sync: full flush to gen %d" slot.Percpu.gen_seen
      end
