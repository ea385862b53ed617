let anonymous_4k mm ~vpn =
  match Mm_struct.find_vma mm ~vpn with
  | Some { Vma.backing = Vma.Anonymous; page_size = Tlb.Four_k; _ } -> true
  | Some _ | None -> false

(* Like Migrate: the merge may run on a user thread, and its shootdowns may
   defer user-PCID flushes that must complete before user code resumes. *)
let in_kernel_service m ~cpu f =
  let cpu_t = Machine.cpu m cpu in
  let was_user = Cpu.in_user cpu_t in
  Cpu.set_in_user cpu_t false;
  Fun.protect
    ~finally:(fun () ->
      if was_user then Shootdown.return_to_user m ~cpu ~has_stack:true)
    f

let merge_pages m ~cpu ~mm ~keep ~dup =
  let pt = Mm_struct.page_table mm in
  let frames = Mm_struct.frames mm in
  in_kernel_service m ~cpu @@ fun () ->
  Rwsem.with_write (Mm_struct.mmap_sem mm) (fun () ->
      let kpte = Page_table.walk pt ~vpn:keep and dpte = Page_table.walk pt ~vpn:dup in
      if
        Pte.present kpte && Pte.present dpte
        && Pte.size kpte = Tlb.Four_k
        && Pte.size dpte = Tlb.Four_k
        && anonymous_4k mm ~vpn:keep && anonymous_4k mm ~vpn:dup
        && Pte.pfn kpte <> Pte.pfn dpte
      then begin
        let keep_pfn = Pte.pfn kpte in
        let dup_pfn = Pte.pfn dpte in
        (* Write-protect both pages and make the change globally visible
           before trusting the contents to stay identical. *)
        let wp_info vpn =
          Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn:vpn ~pages:1
            ~new_tlb_gen:(Mm_struct.tlb_gen mm) ()
        in
        let freeze vpn =
          let window = Checker.begin_invalidation m.Machine.checker (wp_info vpn) in
          if Pte.present (Page_table.update pt ~vpn ~f:Pte.make_cow) then
            Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn;
          Checker.end_invalidation m.Machine.checker window
        in
        freeze keep;
        freeze dup;
        (* The scanner would memcmp here. *)
        Machine.delay m m.Machine.costs.Costs.page_copy;
        (* Retarget the duplicate at the survivor's frame. *)
        let window = Checker.begin_invalidation m.Machine.checker (wp_info dup) in
        Frame_alloc.ref_get frames keep_pfn;
        if
          Pte.present
            (Page_table.update pt ~vpn:dup ~f:(fun pte -> Pte.with_pfn pte keep_pfn))
        then Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn:dup;
        Checker.end_invalidation m.Machine.checker window;
        Frame_alloc.free frames dup_pfn;
        `Merged
      end
      else `Skipped)

let dedup_range m ~cpu ~mm ~vpn ~pages =
  let merged = ref 0 in
  let keep = ref None in
  for v = vpn to vpn + pages - 1 do
    match !keep with
    | None ->
        if anonymous_4k mm ~vpn:v
           && Pte.present (Page_table.walk (Mm_struct.page_table mm) ~vpn:v)
        then keep := Some v
    | Some k -> begin
        match merge_pages m ~cpu ~mm ~keep:k ~dup:v with
        | `Merged -> incr merged
        | `Skipped -> ()
      end
  done;
  !merged
