(* Duplicate an address space with COW sharing (see fork.mli). *)

let copy_vmas parent child =
  let max_end = ref 0 in
  Vma.Set.iter (Mm_struct.vmas parent) ~f:(fun vma ->
      Mm_struct.add_vma child vma;
      max_end := Stdlib.max !max_end (Vma.end_vpn vma));
  Mm_struct.reserve_va child ~min_vpn:(!max_end + 1)

(* Share one parent 4 KiB leaf into the child. Shared mappings stay shared
   and writable in both; a writable private page becomes COW on both
   sides, and a read-only one (COW or protected) is shared as-is. Returns
   true when the parent PTE changed (traced, and so needs flushing). *)
let share_leaf m ~cpu ~parent ~child ~vpn (pte : Pte.t) =
  match Mm_struct.find_vma parent ~vpn with
  | None -> false
  | Some vma ->
      let cow =
        match vma.Vma.backing with
        | Vma.File_shared _ -> false
        | Vma.Anonymous | Vma.File_private _ -> Pte.writable pte
      in
      if cow then begin
        ignore (Page_table.update (Mm_struct.page_table parent) ~vpn ~f:Pte.make_cow);
        Kernel.trace_pte_write m ~cpu ~mm:parent ~vpn ~pages:1
      end;
      Frame_alloc.ref_get (Mm_struct.frames parent) (Pte.pfn pte);
      Page_table.map (Mm_struct.page_table child) ~vpn ~size:Tlb.Four_k
        (if cow then Pte.make_cow pte else pte);
      cow

let fork m ~cpu =
  let parent =
    match (Machine.percpu m cpu).Percpu.loaded_mm with
    | Some mm -> mm
    | None -> invalid_arg "Fork.fork: no address space loaded"
  in
  Kernel.in_syscall m ~cpu @@ fun () ->
  let child = Machine.new_mm m in
  Kernel.in_mmap_sem m ~cpu ~mm:parent ~write:true ~batched:false (fun () ->
      copy_vmas parent child;
      (* Write-protecting live PTEs: open a whole-mm checker window
         until the flush below completes. *)
      Kernel.in_window m ~cpu
        (Flush_info.full ~mm_id:(Mm_struct.id parent)
           ~freed_tables:false ~new_tlb_gen:(Mm_struct.tlb_gen parent))
        (fun () ->
          let leaves = ref [] in
          Page_table.iter (Mm_struct.page_table parent) ~f:(fun vpn pte ->
              if Pte.size pte = Tlb.Four_k then leaves := (vpn, pte) :: !leaves);
          let changed = ref 0 in
          List.iter
            (fun (vpn, pte) ->
              Machine.delay m m.Machine.costs.Costs.zap_pte;
              if share_leaf m ~cpu ~parent ~child ~vpn pte then incr changed)
            !leaves;
          (* Like Linux's fork path: one full shootdown of the parent's
             address space clears any stale writable translations. *)
          if !changed > 0 then Shootdown.flush_tlb_mm m ~from:cpu ~mm:parent));
  child
