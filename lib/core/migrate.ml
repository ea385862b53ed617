(* Only anonymous memory migrates here: moving a page-cache frame would
   have to update the file's radix tree as well. *)
let migratable mm ~vpn =
  match Mm_struct.find_vma mm ~vpn with
  | Some { Vma.backing = Vma.Anonymous; _ } -> true
  | Some _ | None -> false

let migrate_page m ~cpu ~mm ~vpn =
  let pt = Mm_struct.page_table mm in
  (* A kernel service: migration may be invoked from a user thread
     (move_pages(2)-style). *)
  Kernel.in_service m ~cpu @@ fun () ->
  (* The write lock freezes the page: concurrent faulters block until the
     copy is installed (standing in for Linux's migration entries + PTL). *)
  Kernel.in_mmap_sem m ~cpu ~mm ~write:true ~batched:false (fun () ->
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
        (* Phase 1: freeze the page. Write-protect so concurrent writers
           fault; the shootdown guarantees no TLB lets a write slip past
           the copy. *)
        let was_writable = Pte.writable old in
        Kernel.change_pte m ~cpu ~mm ~vpn ~f:Pte.write_protect;
        (* Phase 2: copy to the new frame. *)
        let new_pfn = Frame_alloc.alloc (Mm_struct.frames mm) in
        Machine.delay m m.Machine.costs.Costs.page_copy;
        (* Phase 3: install the new frame and invalidate the old
           translation everywhere before the old frame is recycled. *)
        Kernel.change_pte m ~cpu ~mm ~vpn ~f:(fun pte ->
            Pte.with_writable (Pte.with_pfn pte new_pfn) was_writable);
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
