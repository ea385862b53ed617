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
  module M = Map.Make (Int)

  type set = t M.t  (* keyed by start_vpn *)

  let empty = M.empty
  let cardinal = M.cardinal

  let find set ~vpn =
    match M.find_last_opt (fun start -> start <= vpn) set with
    | Some (_, vma) when contains vma ~vpn -> Some vma
    | Some _ | None -> None

  let overlaps set ~vpn ~pages =
    let stop = vpn + pages in
    (* A VMA overlapping [vpn, stop) either starts inside it or covers vpn. *)
    let starts_inside =
      M.exists (fun start _ -> start >= vpn && start < stop) set
    in
    starts_inside || Option.is_some (find set ~vpn)

  let add set vma =
    if overlaps set ~vpn:vma.start_vpn ~pages:vma.pages then
      invalid_arg "Vma.Set.add: overlapping VMA";
    M.add vma.start_vpn vma set

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

  let remove_range set ~vpn ~pages =
    let stop = vpn + pages in
    let affected =
      M.fold
        (fun _ vma acc ->
          if vma.start_vpn < stop && end_vpn vma > vpn then vma :: acc else acc)
        set []
    in
    let set =
      List.fold_left
        (fun set vma ->
          let set = M.remove vma.start_vpn set in
          (* Re-insert the pieces outside the removed range. *)
          let set =
            if vma.start_vpn < vpn then
              let left = clip vma ~vpn:vma.start_vpn ~stop:vpn in
              M.add left.start_vpn left set
            else set
          in
          if end_vpn vma > stop then
            let right = clip vma ~vpn:stop ~stop:(end_vpn vma) in
            M.add right.start_vpn right set
          else set)
        set affected
    in
    let removed =
      List.map (fun vma -> clip vma ~vpn ~stop) affected
      |> List.sort (fun a b -> Int.compare a.start_vpn b.start_vpn)
    in
    (set, removed)

  let iter set ~f = M.iter (fun _ vma -> f vma) set
  let to_list set = M.fold (fun _ vma acc -> vma :: acc) set [] |> List.rev
end
