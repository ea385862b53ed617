let current_mm m ~cpu =
  match (Machine.percpu m cpu).Percpu.loaded_mm with
  | Some mm -> mm
  | None -> invalid_arg "Syscall: no address space loaded on this CPU"

(* Every removed PTE drops its frame reference: privately owned frames
   (anonymous, broken-CoW copies, at refcount 1) are released outright;
   shared frames (page cache, COW-shared after fork) survive on their
   remaining references. A zap lists the PTEs whose frames it frees, most
   recently removed first; they are freed in the order they were removed. *)
let rec free_frames mm = function
  | [] -> ()
  | pte :: earlier -> (
      free_frames mm earlier;
      let frames = Mm_struct.frames mm in
      match Pte.size pte with
      | Tlb.Four_k -> Frame_alloc.free frames (Pte.pfn pte)
      | Tlb.Two_m -> Frame_alloc.free_huge frames (Pte.pfn pte))

let rec covered vmas ~vpn =
  match vmas with [] -> false | vma :: rest -> Vma.contains vma ~vpn || covered rest ~vpn

(* Flush geometry for a range: hugepage VMAs flush one entry per 2 MiB
   (the flush_tlb_info "stride shift"), everything else per 4 KiB page. *)
let stride_of mm ~vpn =
  match Mm_struct.find_vma mm ~vpn with
  | Some { Vma.page_size = Tlb.Two_m; _ } -> Tlb.Two_m
  | Some _ | None -> Tlb.Four_k

let flush_entries ~stride ~pages =
  match stride with
  | Tlb.Four_k -> pages
  | Tlb.Two_m -> (pages + Addr.pages_per_huge - 1) / Addr.pages_per_huge

(* loc begin: batching *)
(* Bracket for batching-eligible syscalls: the batched mmap_sem section
   (batched mode, and the flush of the deferred shootdowns at release),
   then the frees of the zapped frames, which must wait for that flush,
   and the exit-side generation barrier. *)
let in_batched_section m ~cpu ~mm ~write f =
  Machine.delay m m.Machine.costs.Costs.lock_uncontended;
  free_frames mm (Kernel.in_mmap_sem m ~cpu ~mm ~write ~batched:true f);
  (* The §4.2 barrier: initiators may have skipped us while batched. *)
  Shootdown.check_and_sync_tlb m ~cpu
(* loc end: batching *)

let mmap m ~cpu ~pages ?(writable = true) ?(executable = false) ?backing
    ?(page_size = Tlb.Four_k) () =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      Kernel.in_mmap_sem m ~cpu ~mm ~write:true ~batched:false (fun () ->
          Machine.delay m m.Machine.costs.Costs.vma_op;
          let align = Addr.pages_of_size page_size in
          let start_vpn = Mm_struct.alloc_va_range mm ~align ~pages () in
          Mm_struct.add_vma mm
            (Vma.make ~start_vpn ~pages ~writable ~executable ?backing ~page_size ());
          Addr.addr_of_vpn start_vpn))

(* Each syscall's PTE changes and their flush, inside the range's window
   ([Kernel.in_window]). The zaps return the PTEs whose frames to free. *)
let munmap_body m ~cpu ~mm ~vpn ~pages () =
  let stride = stride_of mm ~vpn in
  Machine.delay m m.Machine.costs.Costs.vma_op;
  let removed_vmas = Mm_struct.remove_vma_range mm ~vpn ~pages in
  let removed = ref 0 and to_free = ref [] in
  let freed_tables =
    Page_table.unmap_range (Mm_struct.page_table mm) ~vpn ~pages ~free_tables:true
      ~f:(fun v pte ->
        incr removed;
        if covered removed_vmas ~vpn:v then to_free := pte :: !to_free)
  in
  if !removed > 0 then Kernel.trace_pte_write m ~cpu ~mm ~vpn ~pages;
  Machine.delay m (m.Machine.costs.Costs.zap_pte * !removed);
  (* Linux batches the whole munmap range into one flush; freed page
     tables disable early ack and batching deferral. *)
  if !removed > 0 || freed_tables then
    Shootdown.flush_tlb_mm_range m ~from:cpu ~mm ~start_vpn:vpn
      ~pages:(flush_entries ~stride ~pages)
      ~stride ~freed_tables;
  !to_free

let munmap m ~cpu ~addr ~pages =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      let vpn = Addr.vpn_of_addr addr in
      in_batched_section m ~cpu ~mm ~write:true (fun () ->
          Kernel.in_window m ~cpu ~mm ~vpn ~pages () munmap_body))

let madvise_body m ~cpu ~mm ~vpn ~pages () =
  let stride = stride_of mm ~vpn in
  let removed = ref 0 and to_free = ref [] in
  ignore
    (Page_table.unmap_range (Mm_struct.page_table mm) ~vpn ~pages ~free_tables:false
       ~f:(fun v pte ->
         incr removed;
         if Option.is_some (Mm_struct.find_vma mm ~vpn:v) then to_free := pte :: !to_free)
      : bool);
  if !removed > 0 then Kernel.trace_pte_write m ~cpu ~mm ~vpn ~pages;
  Machine.delay m (m.Machine.costs.Costs.zap_pte * Stdlib.max 1 !removed);
  if !removed > 0 then
    Shootdown.flush_tlb_mm_range m ~from:cpu ~mm ~start_vpn:vpn
      ~pages:(flush_entries ~stride ~pages)
      ~stride ~freed_tables:false;
  !to_free

let madvise_dontneed m ~cpu ~addr ~pages =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      let vpn = Addr.vpn_of_addr addr in
      in_batched_section m ~cpu ~mm ~write:false (fun () ->
          Kernel.in_window m ~cpu ~mm ~vpn ~pages () madvise_body))

let mprotect_body m ~cpu ~mm ~vpn ~pages writable =
  Machine.delay m m.Machine.costs.Costs.vma_op;
  (* Split and re-add the covered VMA pieces with the new mode. *)
  let removed = Mm_struct.remove_vma_range mm ~vpn ~pages in
  List.iter (fun vma -> Mm_struct.add_vma mm { vma with Vma.writable }) removed;
  let pt = Mm_struct.page_table mm in
  let f =
    if writable then fun pte -> Pte.with_writable pte (not (Pte.cow pte))
    else Pte.write_protect
  in
  let changed = ref 0 in
  for v = vpn to vpn + pages - 1 do
    Machine.delay m m.Machine.costs.Costs.zap_pte;
    if Pte.present (Page_table.update pt ~vpn:v ~f) then incr changed
  done;
  if !changed > 0 then begin
    Kernel.trace_pte_write m ~cpu ~mm ~vpn ~pages;
    Shootdown.flush_tlb_mm_range m ~from:cpu ~mm ~start_vpn:vpn ~pages ~stride:Tlb.Four_k
      ~freed_tables:false
  end

let mprotect m ~cpu ~addr ~pages ~writable =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      let vpn = Addr.vpn_of_addr addr in
      Kernel.in_mmap_sem m ~cpu ~mm ~write:true ~batched:false (fun () ->
          Kernel.in_window m ~cpu ~mm ~vpn ~pages writable mprotect_body))

let mremap_body m ~cpu ~mm ~vpn ~pages () =
  let stride = stride_of mm ~vpn in
  Machine.delay m (2 * m.Machine.costs.Costs.vma_op);
  let removed_vmas = Mm_struct.remove_vma_range mm ~vpn ~pages in
  let align = Addr.pages_of_size stride in
  let new_vpn = Mm_struct.alloc_va_range mm ~align ~pages () in
  let rebase v = new_vpn + (v - vpn) in
  List.iter
    (fun vma -> Mm_struct.add_vma mm { vma with Vma.start_vpn = rebase vma.Vma.start_vpn })
    removed_vmas;
  (* Move live PTEs: the frame references move with them. *)
  let pt = Mm_struct.page_table mm in
  let removed = ref [] in
  let freed_tables =
    Page_table.unmap_range pt ~vpn ~pages ~free_tables:true ~f:(fun old_vpn pte ->
        removed := (old_vpn, pte) :: !removed)
  in
  let removed = List.rev !removed in
  if not (List.is_empty removed) then Kernel.trace_pte_write m ~cpu ~mm ~vpn ~pages;
  Machine.delay m (m.Machine.costs.Costs.zap_pte * List.length removed);
  List.iter
    (fun (old_vpn, pte) -> Page_table.map pt ~vpn:(rebase old_vpn) ~size:(Pte.size pte) pte)
    removed;
  (* The old translations must die everywhere before anything reuses the
     old range; tables were freed, so no early ack. *)
  if (not (List.is_empty removed)) || freed_tables then
    Shootdown.flush_tlb_mm_range m ~from:cpu ~mm ~start_vpn:vpn
      ~pages:(flush_entries ~stride ~pages)
      ~stride ~freed_tables;
  Addr.addr_of_vpn new_vpn

let mremap m ~cpu ~addr ~pages =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      let vpn = Addr.vpn_of_addr addr in
      Kernel.in_mmap_sem m ~cpu ~mm ~write:true ~batched:false (fun () ->
          Kernel.in_window m ~cpu ~mm ~vpn ~pages () mremap_body))

(* Write back one dirty file page mapped at [vpn]: write-protect + clean
   the PTE, flush (possibly deferred into the §4.2 batch), then do the IO.
   Pages already cleaned — concurrently, by another syncer — are skipped,
   and a flush is only issued when the PTE actually changed, mirroring
   clear_page_dirty_for_io. *)
let clean_protect pte = Pte.clean (Pte.write_protect pte)

(* Whether this writeback owns the page's IO. *)
let clean_page m ~cpu ~mm ~vpn ~pages:_ () =
  let old = Page_table.update (Mm_struct.page_table mm) ~vpn ~f:clean_protect in
  if Pte.writable old || Pte.dirty old then begin
    Kernel.trace_pte_write m ~cpu ~mm ~vpn ~pages:1;
    Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn;
    true
  end
  else
    (* Clean and protected already: a concurrent writeback owns this page
       and will complete the IO. Dirty data without a live mapping (e.g.
       unmapped since) is just written out. *)
    not (Pte.present old)

let writeback_page m ~cpu ~mm ~file ~index ~vpn =
  if File.is_dirty file ~index then begin
    if Kernel.in_window m ~cpu ~mm ~vpn ~pages:1 () clean_page then begin
      Machine.delay m m.Machine.costs.Costs.io_page;
      File.clear_dirty file ~index
    end
  end

(* Write back the dirty pages among file pages [first, first + count) of
   [file], which [vma] maps from file page [offset]. *)
let writeback_range m ~cpu ~mm ~vma ~file ~offset ~first ~count =
  File.iter_dirty file ~index:first ~count (fun index ->
      writeback_page m ~cpu ~mm ~file ~index ~vpn:(vma.Vma.start_vpn + (index - offset)))

let msync m ~cpu ~addr ~pages =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      let vpn = Addr.vpn_of_addr addr in
      in_batched_section m ~cpu ~mm ~write:false (fun () ->
          (match Mm_struct.find_vma mm ~vpn with
          | Some ({ Vma.backing = Vma.File_shared { file; offset }; _ } as vma) ->
              writeback_range m ~cpu ~mm ~vma ~file ~offset
                ~first:(offset + (vpn - vma.Vma.start_vpn)) ~count:pages
          | Some _ | None -> ());
          []))

let fdatasync m ~cpu ~file =
  Kernel.in_syscall m ~cpu (fun () ->
      let mm = current_mm m ~cpu in
      let maps_file vma =
        match vma.Vma.backing with
        | Vma.File_shared { file = f; _ } -> f == file
        | Vma.File_private _ | Vma.Anonymous -> false
      in
      match List.find_opt maps_file (Vma.Set.to_list (Mm_struct.vmas mm)) with
      | Some ({ Vma.backing = Vma.File_shared { offset; _ }; _ } as vma) ->
          (* Journal commit and writeback-machinery work independent of the
             dirty count. *)
          Machine.delay m m.Machine.costs.Costs.fsync_fixed;
          in_batched_section m ~cpu ~mm ~write:false (fun () ->
              writeback_range m ~cpu ~mm ~vma ~file ~offset ~first:offset
                ~count:vma.Vma.pages;
              [])
      | Some _ | None -> ())

