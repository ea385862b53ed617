type backing =
  | Anonymous
  | File_shared of { file : File.t; offset : int }
  | File_private of { file : File.t; offset : int }

type t = {
  start_vpn : int;
  pages : int;
  writable : bool;
  executable : bool;
  backing : backing;
  page_size : Tlb.page_size;
}

let make ~start_vpn ~pages ?(writable = true) ?(executable = false)
    ?(backing = Anonymous) ?(page_size = Tlb.Four_k) () =
  if pages <= 0 then invalid_arg "Vma.make: pages must be positive";
  (match page_size with
  | Tlb.Two_m ->
      if not (Addr.huge_aligned start_vpn && pages mod Addr.pages_per_huge = 0) then
        invalid_arg "Vma.make: hugepage VMA must be 2MiB-aligned";
      (match backing with
      | Anonymous -> ()
      | File_shared _ | File_private _ ->
          invalid_arg "Vma.make: hugepage VMAs must be anonymous")
  | Tlb.Four_k -> ());
  { start_vpn; pages; writable; executable; backing; page_size }

let end_vpn t = t.start_vpn + t.pages
let contains t ~vpn = vpn >= t.start_vpn && vpn < end_vpn t

let file_page t ~vpn =
  if not (contains t ~vpn) then None
  else begin
    match t.backing with
    | Anonymous -> None
    | File_shared { file; offset } | File_private { file; offset } ->
        Some (file, offset + (vpn - t.start_vpn))
  end

module Set = struct
  (* Sorted by [start_vpn]. Each VMA is kept in the option [find] returns,
     so a lookup that hits allocates nothing. An address space holds a
     handful of VMAs, and a change copies the array. *)
  type set = t option array

  let empty = [||]
  let cardinal = Array.length
  let vma_at set i = Option.get set.(i)
  let of_list vmas = Array.of_list (List.map Option.some vmas)
  let to_list set = List.map Option.get (Array.to_list set)
  let iter set ~f = Array.iter (fun vma -> f (Option.get vma)) set

  (* Index of the last VMA starting at or below [vpn], or -1. *)
  let last_from set vpn =
    let lo = ref 0 and hi = ref (Array.length set) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if (vma_at set mid).start_vpn <= vpn then lo := mid + 1 else hi := mid
    done;
    !lo - 1

  let find set ~vpn =
    let i = last_from set vpn in
    if i >= 0 && contains (vma_at set i) ~vpn then set.(i) else None

  let overlaps set ~vpn ~pages =
    (* A VMA overlapping [vpn, vpn + pages) either starts inside it or
       covers vpn. *)
    let next = last_from set (vpn - 1) + 1 in
    (next < Array.length set && (vma_at set next).start_vpn < vpn + pages)
    || Option.is_some (find set ~vpn)

  let add set vma =
    if overlaps set ~vpn:vma.start_vpn ~pages:vma.pages then
      invalid_arg "Vma.Set.add: overlapping VMA";
    let at = last_from set vma.start_vpn + 1 in
    Array.init
      (Array.length set + 1)
      (fun i -> if i < at then set.(i) else if i = at then Some vma else set.(i - 1))

  (* Clip [vma] to [vpn, stop), adjusting file offsets; assumes overlap. *)
  let clip vma ~vpn ~stop =
    let new_start = Int.max vma.start_vpn vpn in
    let new_end = Int.min (end_vpn vma) stop in
    (match vma.page_size with
    | Tlb.Two_m ->
        if not (Addr.huge_aligned new_start && Addr.huge_aligned new_end) then
          invalid_arg "Vma: hugepage VMAs can only be split at 2MiB boundaries"
    | Tlb.Four_k -> ());
    let shift = new_start - vma.start_vpn in
    let backing =
      match vma.backing with
      | Anonymous -> Anonymous
      | File_shared { file; offset } -> File_shared { file; offset = offset + shift }
      | File_private { file; offset } -> File_private { file; offset = offset + shift }
    in
    { vma with start_vpn = new_start; pages = new_end - new_start; backing }

  (* Remove [vpn, vpn + pages): the pieces outside it stay, in order. *)
  let remove_range set ~vpn ~pages =
    let stop = vpn + pages in
    let kept = ref [] and removed = ref [] in
    iter set ~f:(fun vma ->
        if vma.start_vpn < stop && end_vpn vma > vpn then begin
          if vma.start_vpn < vpn then
            kept := clip vma ~vpn:vma.start_vpn ~stop:vpn :: !kept;
          if end_vpn vma > stop then
            kept := clip vma ~vpn:stop ~stop:(end_vpn vma) :: !kept;
          removed := clip vma ~vpn ~stop :: !removed
        end
        else kept := vma :: !kept);
    (of_list (List.rev !kept), List.rev !removed)
end
