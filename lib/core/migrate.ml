(* Only anonymous memory migrates here: moving a page-cache frame would
   have to update the file's radix tree as well. *)
let migratable mm ~vpn =
  match Mm_struct.find_vma mm ~vpn with
  | Some { Vma.backing = Vma.Anonymous; _ } -> true
  | Some _ | None -> false

(* Bracket kernel-service entry/exit: migration may be invoked from a user
   thread (move_pages(2)-style); any user-PCID flush its shootdowns defer
   must run before user code resumes. *)
let in_kernel_service m ~cpu f =
  let cpu_t = Machine.cpu m cpu in
  let was_user = Cpu.in_user cpu_t in
  Cpu.set_in_user cpu_t false;
  Fun.protect
    ~finally:(fun () ->
      if was_user then Shootdown.return_to_user m ~cpu ~has_stack:true)
    f

let migrate_page m ~cpu ~mm ~vpn =
  let costs = m.Machine.costs in
  let pt = Mm_struct.page_table mm in
  in_kernel_service m ~cpu @@ fun () ->
  (* The write lock freezes the page: concurrent faulters block until the
     copy is installed (standing in for Linux's migration entries + PTL). *)
  Rwsem.with_write (Mm_struct.mmap_sem mm) (fun () ->
      let old = Page_table.walk pt ~vpn in
      if not (Pte.present old) then `Skipped
      else if
        Pte.size old <> Tlb.Four_k
        || (not (migratable mm ~vpn))
        || Frame_alloc.refcount (Mm_struct.frames mm) (Pte.pfn old) <> 1
      then
        (* Hugepages would need splitting first; file pages live in the
           page cache; COW-shared frames are mapped by other address
           spaces whose PTEs we cannot rewrite. *)
        `Skipped
      else begin
        let info () =
          Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:vpn ~pages:1
            ~new_tlb_gen:(Mm_struct.tlb_gen mm) ()
        in
        (* Phase 1: freeze the page. Write-protect so concurrent writers
           fault; the shootdown guarantees no TLB lets a write slip past
           the copy. *)
        let window1 = Checker.begin_invalidation m.Machine.checker (info ()) in
        let was_writable = Pte.writable old in
        if Pte.present (Page_table.update pt ~vpn ~f:Pte.write_protect) then
          Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn;
        Checker.end_invalidation m.Machine.checker window1;
        (* Phase 2: copy to the new frame. *)
        let new_pfn = Frame_alloc.alloc (Mm_struct.frames mm) in
        Machine.delay m costs.Costs.page_copy;
        (* Phase 3: install the new frame and invalidate the old
           translation everywhere before the old frame is recycled. *)
        let window2 = Checker.begin_invalidation m.Machine.checker (info ()) in
        if
          Pte.present
            (Page_table.update pt ~vpn ~f:(fun pte ->
                 Pte.with_writable (Pte.with_pfn pte new_pfn) was_writable))
        then Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn;
        Checker.end_invalidation m.Machine.checker window2;
        Frame_alloc.free (Mm_struct.frames mm) (Pte.pfn old);
        `Migrated
      end)

let migrate_range m ~cpu ~mm ~vpn ~pages =
  let migrated = ref 0 in
  for v = vpn to vpn + pages - 1 do
    match migrate_page m ~cpu ~mm ~vpn:v with
    | `Migrated -> incr migrated
    | `Skipped -> ()
  done;
  !migrated
