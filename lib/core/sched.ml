let switch_mm m ~cpu mm =
  let pcpu = Machine.percpu m cpu in
  let costs = m.Machine.costs in
  let tlb = Cpu.tlb (Machine.cpu m cpu) in
  let same_mm =
    match pcpu.Percpu.loaded_mm with
    | Some old -> Mm_struct.id old = Mm_struct.id mm
    | None -> false
  in
  if not same_mm then begin
    (match pcpu.Percpu.loaded_mm with
    | Some old ->
        (* Leaving an address space: drop out of its shootdown targeting. *)
        Machine.charge_atomic m (Mm_struct.line old) ~by:cpu;
        Mm_struct.cpu_clear old ~cpu
    | None -> ());
    Machine.charge_atomic m (Mm_struct.line mm) ~by:cpu;
    Mm_struct.cpu_set mm ~cpu;
    let slot_idx, recycled =
      Percpu.choose_slot pcpu ~mm_id:(Mm_struct.id mm) ~now:(Machine.now m)
    in
    if recycled then begin
      (* The ASID held another mm's translations: flush both PCIDs. *)
      Machine.delay m costs.Costs.invpcid_full;
      Tlb.flush_pcid tlb ~pcid:(Percpu.kernel_pcid slot_idx);
      if m.Machine.opts.Opts.safe then begin
        Machine.delay m costs.Costs.invpcid_full;
        Tlb.flush_pcid tlb ~pcid:(Percpu.user_pcid slot_idx)
      end
    end;
    pcpu.Percpu.curr_asid <- slot_idx;
    pcpu.Percpu.loaded_mm <- Some mm;
    Machine.delay m costs.Costs.cr3_write;
    Machine.delay m costs.Costs.context_switch;
    (* Catch up with generations this slot missed while inactive. *)
    let slot = pcpu.Percpu.asids.(slot_idx) in
    if recycled || slot.Percpu.gen_seen = 0 then begin
      Machine.charge_read m (Mm_struct.line mm) ~by:cpu;
      if Machine.tracing m then
        Machine.trace_event m ~cpu
          (Trace.Gen_read { mm_id = Mm_struct.id mm; gen = Mm_struct.tlb_gen mm });
      slot.Percpu.gen_seen <- Mm_struct.tlb_gen mm
    end
    else Shootdown.check_and_sync_tlb m ~cpu
  end;
  pcpu.Percpu.lazy_mode <- false

let unload m ~cpu =
  let pcpu = Machine.percpu m cpu in
  match pcpu.Percpu.loaded_mm with
  | None -> ()
  | Some mm ->
      Machine.charge_atomic m (Mm_struct.line mm) ~by:cpu;
      Mm_struct.cpu_clear mm ~cpu;
      pcpu.Percpu.loaded_mm <- None;
      pcpu.Percpu.lazy_mode <- false

let enter_lazy m ~cpu =
  let pcpu = Machine.percpu m cpu in
  (* The lazy flag lives on a contended line (which one depends on the
     §3.3 layout); flipping it is a local write that later forces a
     transfer to any shootdown initiator reading it. *)
  Machine.charge_write m (Smp.tlb_state_line m pcpu) ~by:cpu;
  pcpu.Percpu.lazy_mode <- true

let exit_lazy m ~cpu =
  let pcpu = Machine.percpu m cpu in
  if pcpu.Percpu.lazy_mode then begin
    Machine.charge_write m (Smp.tlb_state_line m pcpu) ~by:cpu;
    pcpu.Percpu.lazy_mode <- false;
    (* Shootdowns skipped us while lazy: synchronize before user code.
       Leaving lazy mode resumes the user thread, so the deferred user-PCID
       flush (performed by the return-to-user CR3 load) runs here too. *)
    Shootdown.check_and_sync_tlb m ~cpu;
    Shootdown.flush_pending_user m ~cpu ~has_stack:true
  end
