type t = {
  mmu_tlb : Tlb.t;
  guest : Page_table.t;
  ept : Ept.t option;
  pcid : int;
  mutable pv_hint : bool;
}

exception Guest_fault of int

let create ?tlb_capacity ~guest ?ept ~pcid () =
  { mmu_tlb = Tlb.create ?capacity:tlb_capacity (); guest; ept; pcid; pv_hint = false }

let tlb t = t.mmu_tlb

let fill t ~vpn =
  match t.ept with
  | Some ept -> begin
      match Ept.Nested.translate ~guest:t.guest ~ept ~vpn with
      | None -> raise (Guest_fault vpn)
      | Some r ->
          (* The TLB caches the combined GVA->HPA mapping at the effective
             (smaller) page size; align the tag accordingly. *)
          let base =
            match r.Ept.Nested.effective_size with
            | Tlb.Four_k -> vpn
            | Tlb.Two_m -> vpn land lnot 511
          in
          let hfn_base = r.Ept.Nested.hfn - (vpn - base) in
          Tlb.fill t.mmu_tlb ~vpn:base ~pfn:hfn_base ~pcid:t.pcid
            ~size:r.Ept.Nested.effective_size ~global:false
            ~writable:(Pte.writable r.Ept.Nested.pte) ~fractured:r.Ept.Nested.fractured
    end
  | None -> begin
      let pte = Page_table.walk t.guest ~vpn in
      if not (Pte.present pte) then raise (Guest_fault vpn);
      let size = Pte.size pte in
      let base = match size with Tlb.Four_k -> vpn | Tlb.Two_m -> vpn land lnot 511 in
      Tlb.fill t.mmu_tlb ~vpn:base ~pfn:(Pte.pfn pte) ~pcid:t.pcid ~size
        ~global:(Pte.global pte) ~writable:(Pte.writable pte) ~fractured:false
    end

let access t ~vpn =
  if Tlb.probe t.mmu_tlb ~pcid:t.pcid ~vpn != Tlb.no_entry then `Hit
  else begin
    fill t ~vpn;
    `Miss_filled
  end

let touch_range t ~start_vpn ~pages =
  let hits = ref 0 and misses = ref 0 in
  for i = 0 to pages - 1 do
    match access t ~vpn:(start_vpn + i) with
    | `Hit -> incr hits
    | `Miss_filled -> incr misses
  done;
  (!hits, !misses)

let invlpg t ~vpn = Tlb.invlpg t.mmu_tlb ~current_pcid:t.pcid ~vpn

let full_flush t = Tlb.flush_all t.mmu_tlb

let set_paravirt_fracture_hint t b = t.pv_hint <- b

let flush_pages t ~vpns =
  if t.pv_hint then begin
    (* Fracturing may promote any selective flush to a full flush: issuing
       several INVLPGs would pay their cost for no retained entries. One
       full flush gets the same TLB state at 1/n of the instructions. *)
    full_flush t;
    1
  end
  else begin
    List.iter (fun vpn -> invlpg t ~vpn) vpns;
    List.length vpns
  end
