(* Duplicate an address space with COW sharing (see fork.mli). *)

let copy_vmas parent child =
  let max_end = ref 0 in
  Vma.Set.iter (Mm_struct.vmas parent) ~f:(fun vma ->
      Mm_struct.add_vma child vma;
      max_end := Stdlib.max !max_end (Vma.end_vpn vma));
  Mm_struct.reserve_va child ~min_vpn:(!max_end + 1)

(* Share one parent 4 KiB leaf into the child, write-protecting private
   writable pages on both sides. Returns true when the parent PTE changed
   (and so needs flushing). *)
let share_leaf m ~parent ~child ~vpn (pte : Pte.t) =
  let frames = Mm_struct.frames parent in
  let backing =
    match Mm_struct.find_vma parent ~vpn with
    | Some vma -> Some vma.Vma.backing
    | None -> None
  in
  match backing with
  | None -> false
  | Some (Vma.File_shared _) ->
      (* Shared mappings stay shared and writable in both. *)
      Frame_alloc.ref_get frames (Pte.pfn pte);
      Page_table.map (Mm_struct.page_table child) ~vpn ~size:Tlb.Four_k pte;
      false
  | Some (Vma.Anonymous | Vma.File_private _) ->
      if Pte.writable pte then begin
        (* Both sides must COW from now on. *)
        ignore
          (Page_table.update (Mm_struct.page_table parent) ~vpn ~f:Pte.make_cow);
        Frame_alloc.ref_get frames (Pte.pfn pte);
        Page_table.map (Mm_struct.page_table child) ~vpn ~size:Tlb.Four_k
          (Pte.make_cow pte);
        ignore m;
        true
      end
      else begin
        (* Already read-only (COW or protected): share as-is. *)
        Frame_alloc.ref_get frames (Pte.pfn pte);
        Page_table.map (Mm_struct.page_table child) ~vpn ~size:Tlb.Four_k pte;
        false
      end

let fork m ~cpu =
  let costs = m.Machine.costs and safe = m.Machine.opts.Opts.safe in
  let parent =
    match (Machine.percpu m cpu).Percpu.loaded_mm with
    | Some mm -> mm
    | None -> invalid_arg "Fork.fork: no address space loaded"
  in
  let cpu_t = Machine.cpu m cpu in
  Cpu.set_in_user cpu_t false;
  Machine.delay m (Costs.syscall_entry costs ~safe);
  Fun.protect
    ~finally:(fun () ->
      Machine.delay m (Costs.syscall_exit costs ~safe);
      Shootdown.return_to_user m ~cpu ~has_stack:true)
    (fun () ->
      let child = Machine.new_mm m in
      Rwsem.with_write (Mm_struct.mmap_sem parent) (fun () ->
          copy_vmas parent child;
          (* Write-protecting live PTEs: open a whole-mm checker window
             until the flush below completes. *)
          let window =
            Checker.begin_invalidation m.Machine.checker
              (Flush_info.full ~mm_id:(Mm_struct.id parent)
                 ~new_tlb_gen:(Mm_struct.tlb_gen parent) ())
          in
          Fun.protect
            ~finally:(fun () -> Checker.end_invalidation m.Machine.checker window)
            (fun () ->
              let leaves = ref [] in
              Page_table.iter (Mm_struct.page_table parent) ~f:(fun vpn pte ->
                  if Pte.size pte = Tlb.Four_k then leaves := (vpn, pte) :: !leaves);
              let changed = ref 0 in
              List.iter
                (fun (vpn, pte) ->
                  Machine.delay m costs.Costs.zap_pte;
                  if share_leaf m ~parent ~child ~vpn pte then incr changed)
                !leaves;
              (* Like Linux's fork path: one full shootdown of the parent's
                 address space clears any stale writable translations. *)
              if !changed > 0 then Shootdown.flush_tlb_mm m ~from:cpu ~mm:parent));
      child)
