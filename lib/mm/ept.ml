type t = { table : Page_table.t }

let create () = { table = Page_table.create () }

let map t ~gfn ~size ~hfn =
  (match size with
  | Tlb.Two_m when not (Addr.huge_aligned gfn && Addr.huge_aligned hfn) ->
      invalid_arg "Ept.map: 2MiB mapping must be aligned on both sides"
  | Tlb.Two_m | Tlb.Four_k -> ());
  Page_table.map t.table ~vpn:gfn ~size (Pte.user_data ~pfn:hfn)

let translate t ~gfn =
  let pte = Page_table.walk t.table ~vpn:gfn in
  if not (Pte.present pte) then None
  else begin
    let size = Pte.size pte in
    let base = match size with Tlb.Four_k -> gfn | Tlb.Two_m -> gfn land lnot 511 in
    Some (Pte.pfn pte + (gfn - base), size)
  end

module Nested = struct
  type result = {
    hfn : int;
    guest_size : Tlb.page_size;
    host_size : Tlb.page_size;
    effective_size : Tlb.page_size;
    fractured : bool;
    levels : int;
    pte : Pte.t;
  }

  let levels = function Tlb.Four_k -> 4 | Tlb.Two_m -> 3

  let translate ~guest ~ept ~vpn =
    let pte = Page_table.walk guest ~vpn in
    if not (Pte.present pte) then None
    else begin
      let guest_size = Pte.size pte in
      let gbase =
        match guest_size with Tlb.Four_k -> vpn | Tlb.Two_m -> vpn land lnot 511
      in
      let gfn = Pte.pfn pte + (vpn - gbase) in
      match translate ept ~gfn with
      | None -> None
      | Some (hfn, host_size) ->
          let effective_size =
            match (guest_size, host_size) with
            | Tlb.Two_m, Tlb.Two_m -> Tlb.Two_m
            | _ -> Tlb.Four_k
          in
          let fractured = guest_size = Tlb.Two_m && host_size = Tlb.Four_k in
          (* Each guest level of the walk re-translates through the EPT;
             4 guest levels x ~4 host levels bounds the 2D walk depth. *)
          Some
            {
              hfn;
              guest_size;
              host_size;
              effective_size;
              fractured;
              levels = levels guest_size * levels host_size;
              pte;
            }
    end
end
