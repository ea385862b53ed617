exception Segfault of { sf_cpu : int; sf_vaddr : int; sf_write : bool }

(* Install a freshly built PTE unless another CPU faulted the page in
   while we were allocating/copying (the pte_none re-check Linux performs
   under the page-table lock); on a lost race, drop the caller's reference
   on [owned_frame] instead. *)
let map_unless_raced pt ~vpn ~size pte ~owned_frame ~frames =
  if not (Pte.present (Page_table.walk pt ~vpn)) then Page_table.map pt ~vpn ~size pte
  else
    match size with
    | Tlb.Four_k -> Frame_alloc.free frames owned_frame
    | Tlb.Two_m -> Frame_alloc.free_huge frames owned_frame

(* A user PTE for [pfn] with [vma]'s permissions. *)
let vma_pte ~pfn ~vma =
  Pte.with_executable (Pte.with_writable (Pte.user_data ~pfn) vma.Vma.writable)
    vma.Vma.executable

let demand_map m ~mm ~vma ~vpn ~write =
  let costs = m.Machine.costs in
  let pt = Mm_struct.page_table mm in
  let frames = Mm_struct.frames mm in
  match vma.Vma.backing with
  | Vma.Anonymous when vma.Vma.page_size = Tlb.Two_m ->
      (* Hugepage fault: one 2 MiB mapping covers the whole aligned run. *)
      let base = vpn land lnot (Addr.pages_per_huge - 1) in
      if not (Pte.present (Page_table.walk pt ~vpn:base)) then begin
        let pfn = Frame_alloc.alloc_huge frames in
        Machine.delay m (costs.Costs.page_zero * Addr.pages_per_huge);
        map_unless_raced pt ~vpn:base ~size:Tlb.Two_m (vma_pte ~pfn ~vma) ~owned_frame:pfn
          ~frames
      end
  | Vma.Anonymous ->
      let pfn = Frame_alloc.alloc frames in
      Machine.delay m costs.Costs.page_zero;
      map_unless_raced pt ~vpn ~size:Tlb.Four_k (vma_pte ~pfn ~vma) ~owned_frame:pfn
        ~frames
  | Vma.File_shared _ ->
      let file, index = Option.get (Vma.file_page vma ~vpn) in
      let fresh = not (File.cached file ~index) in
      let pfn = File.frame_of_page file ~index in
      if fresh then Machine.delay m costs.Costs.io_page;
      (* The mapping takes its own reference on the page-cache frame. *)
      Frame_alloc.ref_get frames pfn;
      (* Map writable only on a write fault so writeback's write-protect /
         re-dirty cycle is observable (the msync/fdatasync path). *)
      let writable = vma.Vma.writable && write in
      map_unless_raced pt ~vpn ~size:Tlb.Four_k
        (Pte.with_dirty (Pte.with_writable (vma_pte ~pfn ~vma) writable) write)
        ~owned_frame:pfn ~frames;
      if write then File.mark_dirty file ~index
  | Vma.File_private _ ->
      let file, index = Option.get (Vma.file_page vma ~vpn) in
      let fresh = not (File.cached file ~index) in
      let src_pfn = File.frame_of_page file ~index in
      if fresh then Machine.delay m costs.Costs.io_page;
      if write then begin
        (* do_cow_fault: no stale translation exists, so copying directly
           into a private page needs no TLB flush at all. *)
        let pfn = Frame_alloc.alloc frames in
        Machine.delay m costs.Costs.page_copy;
        map_unless_raced pt ~vpn ~size:Tlb.Four_k
          (Pte.with_dirty
             (Pte.with_executable (Pte.user_data ~pfn) vma.Vma.executable)
             true)
          ~owned_frame:pfn ~frames
      end
      else begin
        (* Map the page-cache frame read-only and COW-marked, with its own
           reference. *)
        Frame_alloc.ref_get frames src_pfn;
        map_unless_raced pt ~vpn ~size:Tlb.Four_k
          (Pte.make_cow
             (Pte.with_executable (Pte.user_data ~pfn:src_pfn) vma.Vma.executable))
          ~owned_frame:src_pfn ~frames
      end

(* The break itself, inside its page's window. *)
let cow_break_body m ~cpu ~mm ~vpn ~pages:_ (old : Pte.t) =
  let costs = m.Machine.costs and opts = m.Machine.opts in
  let pt = Mm_struct.page_table mm in
  let new_pfn = Frame_alloc.alloc (Mm_struct.frames mm) in
  Machine.delay m costs.Costs.page_copy;
  (* The CPU may speculatively re-walk and re-cache the stale PTE between
     the fault and the PTE update (§4.1) — the reason a flush (or the dummy
     write) is needed even though faults invalidate the faulting entry. *)
  if Rng.bool m.Machine.rng ~p:opts.Opts.spec_pte_recache_p then begin
    let asid = (Machine.percpu m cpu).Percpu.curr_asid in
    let pcid = Percpu.(if opts.Opts.safe then user_pcid asid else kernel_pcid asid) in
    Tlb.fill
      (Cpu.tlb (Machine.cpu m cpu))
      ~vpn ~pfn:(Pte.pfn old) ~pcid ~size:Tlb.Four_k ~global:false ~writable:false
      ~fractured:false
  end;
  (* Re-check under the "page-table lock": another CPU may have broken the
     COW while we copied; if so, discard our copy and take no flush. *)
  let current =
    Page_table.update pt ~vpn ~f:(fun pte ->
        if Pte.cow pte then Pte.break_cow pte ~new_pfn else pte)
  in
  if not (Pte.present current && Pte.cow current) then
    Frame_alloc.free (Mm_struct.frames mm) new_pfn
  else begin
    (* This mapping's reference moves to the private copy. *)
    Kernel.trace_pte_write m ~cpu ~mm ~vpn ~pages:1;
    Frame_alloc.free (Mm_struct.frames mm) (Pte.pfn old);
    Shootdown.flush_tlb_page_cow m ~from:cpu ~mm ~vpn ~executable:(Pte.executable old)
  end

let cow_break m ~cpu ~mm ~vpn old =
  let stats = m.Machine.stats in
  stats.Machine.cow_breaks <- stats.Machine.cow_breaks + 1;
  (* The PTE changes before the flush API runs: keep the checker's
     invalidation window open across the whole break. *)
  Kernel.in_window m ~cpu ~mm ~vpn ~pages:1 old cow_break_body

let write_notify ~mm ~vma ~vpn =
  (* Shared-file write to a clean, write-protected page: upgrading
     permissions needs no shootdown — remote CPUs holding the read-only
     entry take their own spurious fault. The local stale entry was already
     dropped by the faulting hardware. *)
  let pt = Mm_struct.page_table mm in
  let old =
    Page_table.update pt ~vpn ~f:(fun pte -> Pte.mark_dirty (Pte.with_writable pte true))
  in
  if not (Pte.present old) then assert false;
  match Vma.file_page vma ~vpn with
  | Some (file, index) -> File.mark_dirty file ~index
  | None -> ()

(* The fault proper, under [mm]'s mmap_sem held for reading. *)
let resolve m ~cpu ~mm ~vaddr ~write ~vpn =
  match Mm_struct.find_vma mm ~vpn with
  | None -> raise (Segfault { sf_cpu = cpu; sf_vaddr = vaddr; sf_write = write })
  | Some vma ->
      if write && not vma.Vma.writable then
        raise (Segfault { sf_cpu = cpu; sf_vaddr = vaddr; sf_write = write });
      let pte = Page_table.walk (Mm_struct.page_table mm) ~vpn in
      if not (Pte.present pte) then demand_map m ~mm ~vma ~vpn ~write
      else if write && not (Pte.writable pte) then
        if Pte.cow pte then cow_break m ~cpu ~mm ~vpn pte
        else write_notify ~mm ~vma ~vpn
(* Otherwise spurious: another CPU already resolved it. *)

(* The kernel-service and read-locked brackets, entered and left by
   hand so that a fault builds no closure. *)
let handle m ~cpu ~mm ~vaddr ~write =
  let costs = m.Machine.costs and opts = m.Machine.opts and stats = m.Machine.stats in
  stats.Machine.faults <- stats.Machine.faults + 1;
  let was_user = Kernel.enter_service m ~cpu in
  match
    Machine.delay m
      (costs.Costs.fault_fixed
      + if opts.Opts.safe then costs.Costs.fault_fixed_safe_extra else 0);
    let vpn = Addr.vpn_of_addr vaddr in
    Kernel.lock_mmap m ~cpu ~mm ~write:false ~batched:false;
    match resolve m ~cpu ~mm ~vaddr ~write ~vpn with
    | () -> Kernel.unlock_mmap m ~cpu ~mm ~write:false ~batched:false
    | exception ex ->
        let bt = Printexc.get_raw_backtrace () in
        Kernel.unlock_mmap m ~cpu ~mm ~write:false ~batched:false;
        Printexc.raise_with_backtrace ex bt
  with
  | () -> Kernel.leave_service m ~cpu ~was_user
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      Kernel.leave_service m ~cpu ~was_user;
      Printexc.raise_with_backtrace ex bt
