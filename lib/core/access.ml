let max_fault_retries = 8

(* Translate and return the pfn backing [vaddr] — the value the fuzzer
   diffs between optimized and oracle runs. For a 2M entry the offset
   within the huge frame is added so the result names the exact 4k frame. *)
let rec access m ~cpu ~vaddr ~write ~attempt =
  if attempt > max_fault_retries then
    failwith
      (Printf.sprintf "Access: fault loop at vaddr %d on cpu %d (kernel bug)" vaddr cpu);
  let pcpu = Machine.percpu m cpu in
  let mm =
    match pcpu.Percpu.loaded_mm with
    | Some mm -> mm
    | None -> invalid_arg "Access: no address space loaded on this CPU"
  in
  let costs = m.Machine.costs in
  let vpn = Addr.vpn_of_addr vaddr in
  let tlb = Cpu.tlb (Machine.cpu m cpu) in
  let pcid =
    if m.Machine.opts.Opts.safe then Percpu.user_pcid pcpu.Percpu.curr_asid
    else Percpu.kernel_pcid pcpu.Percpu.curr_asid
  in
  (* Instruction boundary: pending interrupts preempt user execution here
     (user code is never interleaved with a handler, only preceded). *)
  Cpu.service_pending (Machine.cpu m cpu);
  Machine.delay m costs.Costs.mem_access;
  let entry = Tlb.probe tlb ~pcid ~vpn in
  if entry != Tlb.no_entry then begin
    let pt = Mm_struct.page_table mm in
    (match
       Checker.check_hit m.Machine.checker ~now:(Machine.now m) ~cpu
         ~mm_id:(Mm_struct.id mm) ~vpn ~write ~entry ~pt
     with
    | `Clean -> ()
    | `Benign detail ->
        if Machine.tracing m then
          Machine.trace_event m ~cpu
            (Trace.Stale_hit { mm_id = Mm_struct.id mm; vpn; benign = true; detail })
    | `Violation detail ->
        if Machine.tracing m then
          Machine.trace_event m ~cpu
            (Trace.Stale_hit { mm_id = Mm_struct.id mm; vpn; benign = false; detail }));
    if write && not entry.Tlb.writable then begin
      (* Permission fault; the hardware invalidates the faulting entry. *)
      Tlb.drop tlb ~pcid ~vpn;
      Fault.handle m ~cpu ~mm ~vaddr ~write;
      access m ~cpu ~vaddr ~write ~attempt:(attempt + 1)
    end
    else entry.Tlb.pfn + (vpn - entry.Tlb.vpn)
  end
  else begin
    let pt = Mm_struct.page_table mm in
    let pte = Page_table.walk pt ~vpn in
    if Pte.present pte && ((not write) || Pte.writable pte) then begin
      let walk_cost =
        if Tlb.pwc_warm tlb then costs.Costs.page_walk else costs.Costs.page_walk_cold
      in
      Machine.delay m walk_cost;
      Tlb.warm_pwc tlb;
      let size = Pte.size pte in
      let base = match size with Tlb.Four_k -> vpn | Tlb.Two_m -> vpn land lnot 511 in
      Tlb.fill tlb ~vpn:base ~pfn:(Pte.pfn pte) ~pcid ~size ~global:(Pte.global pte)
        ~writable:(Pte.writable pte) ~fractured:false;
      if Machine.tracing m then
        Machine.trace_event m ~cpu
          (Trace.Tlb_fill { mm_id = Mm_struct.id mm; vpn; pcid });
      Pte.pfn pte + (vpn - base)
    end
    else begin
      Fault.handle m ~cpu ~mm ~vaddr ~write;
      access m ~cpu ~vaddr ~write ~attempt:(attempt + 1)
    end
  end

let translate m ~cpu ~vaddr ~write = access m ~cpu ~vaddr ~write ~attempt:0
let read m ~cpu ~vaddr = ignore (access m ~cpu ~vaddr ~write:false ~attempt:0)
let write m ~cpu ~vaddr = ignore (access m ~cpu ~vaddr ~write:true ~attempt:0)

let touch_range m ~cpu ~addr ~pages ~write =
  for i = 0 to pages - 1 do
    let vaddr = addr + (i * Addr.page_size) in
    ignore (access m ~cpu ~vaddr ~write ~attempt:0)
  done
