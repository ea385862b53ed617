let anonymous_4k mm ~vpn =
  match Mm_struct.find_vma mm ~vpn with
  | Some { Vma.backing = Vma.Anonymous; page_size = Tlb.Four_k; _ } -> true
  | Some _ | None -> false

let merge_pages m ~cpu ~mm ~keep ~dup =
  let pt = Mm_struct.page_table mm in
  let frames = Mm_struct.frames mm in
  (* A kernel service: the merge may run on a user thread. *)
  Kernel.in_service m ~cpu @@ fun () ->
  Kernel.in_mmap_sem m ~cpu ~mm ~write:true ~batched:false (fun () ->
      let kpte = Page_table.walk pt ~vpn:keep and dpte = Page_table.walk pt ~vpn:dup in
      if
        Pte.present kpte && Pte.present dpte
        && Pte.size kpte = Tlb.Four_k
        && Pte.size dpte = Tlb.Four_k
        && anonymous_4k mm ~vpn:keep && anonymous_4k mm ~vpn:dup
        && Pte.pfn kpte <> Pte.pfn dpte
      then begin
        let keep_pfn = Pte.pfn kpte and dup_pfn = Pte.pfn dpte in
        (* Write-protect both pages and make the change globally visible
           before trusting the contents to stay identical. *)
        let freeze v =
          Kernel.in_window m ~cpu (Kernel.range_info mm ~start_vpn:v ~pages:1) (fun () ->
              if Pte.present (Page_table.update pt ~vpn:v ~f:Pte.make_cow) then
                Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn:v)
        in
        freeze keep;
        freeze dup;
        (* The scanner would memcmp here. *)
        Machine.delay m m.Machine.costs.Costs.page_copy;
        (* Retarget the duplicate at the survivor's frame. *)
        Kernel.in_window m ~cpu (Kernel.range_info mm ~start_vpn:dup ~pages:1) (fun () ->
            Frame_alloc.ref_get frames keep_pfn;
            if
              Pte.present
                (Page_table.update pt ~vpn:dup ~f:(fun pte -> Pte.with_pfn pte keep_pfn))
            then Shootdown.flush_tlb_page m ~from:cpu ~mm ~vpn:dup);
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
