type vm_shape = {
  label : string;
  host : Tlb.page_size option;
  guest : Tlb.page_size;
}

let table4_rows =
  [
    { label = "VM   host=4K guest=4K"; host = Some Tlb.Four_k; guest = Tlb.Four_k };
    { label = "VM   host=4K guest=2M"; host = Some Tlb.Four_k; guest = Tlb.Two_m };
    { label = "VM   host=2M guest=4K"; host = Some Tlb.Two_m; guest = Tlb.Four_k };
    { label = "VM   host=2M guest=2M"; host = Some Tlb.Two_m; guest = Tlb.Two_m };
    { label = "Bare-metal    4K"; host = None; guest = Tlb.Four_k };
    { label = "Bare-metal    2M"; host = None; guest = Tlb.Two_m };
  ]

type config = { working_set_pages : int; rounds : int; tlb_capacity : int }

type result = {
  shape : vm_shape;
  full_misses : int;
  selective_misses : int;
  fracture_promotions : int;
}

(* Base of the working set; 2 MiB-aligned so hugepage mappings are legal. *)
let base_vpn = 1 lsl 21

(* An address far from the working set that is never mapped: the paper
   stresses the flushed page "was not mapped in the page-tables so it could
   not have been cached in the TLB". *)
let victim_vpn = 1 lsl 30

let hfn_base = 1 lsl 22

let build_mmu config shape =
  let pages = config.working_set_pages in
  let guest = Page_table.create () in
  (* Guest mapping: GVA -> GPA, identity over the working set. *)
  (match shape.guest with
  | Tlb.Four_k ->
      for i = 0 to pages - 1 do
        Page_table.map guest ~vpn:(base_vpn + i) ~size:Tlb.Four_k
          (Pte.user_data ~pfn:(base_vpn + i))
      done
  | Tlb.Two_m ->
      let hugepages = (pages + Addr.pages_per_huge - 1) / Addr.pages_per_huge in
      for h = 0 to hugepages - 1 do
        let vpn = base_vpn + (h * Addr.pages_per_huge) in
        Page_table.map guest ~vpn ~size:Tlb.Two_m (Pte.user_data ~pfn:vpn)
      done);
  let ept =
    match shape.host with
    | None -> None
    | Some host_size ->
        let ept = Ept.create () in
        (match host_size with
        | Tlb.Four_k ->
            for i = 0 to pages - 1 do
              Ept.map ept ~gfn:(base_vpn + i) ~size:Tlb.Four_k ~hfn:(hfn_base + i)
            done
        | Tlb.Two_m ->
            let hugepages = (pages + Addr.pages_per_huge - 1) / Addr.pages_per_huge in
            for h = 0 to hugepages - 1 do
              let gfn = base_vpn + (h * Addr.pages_per_huge) in
              Ept.map ept ~gfn ~size:Tlb.Two_m ~hfn:(hfn_base + (h * Addr.pages_per_huge))
            done);
        Some ept
  in
  match ept with
  | Some ept ->
      Nested_mmu.create ~tlb_capacity:config.tlb_capacity ~guest ~ept ~pcid:1 ()
  | None -> Nested_mmu.create ~tlb_capacity:config.tlb_capacity ~guest ~pcid:1 ()

let run_regime config shape ~selective =
  let mmu = build_mmu config shape in
  for _ = 1 to config.rounds do
    ignore (Nested_mmu.touch_range mmu ~start_vpn:base_vpn ~pages:config.working_set_pages);
    if selective then Nested_mmu.invlpg mmu ~vpn:victim_vpn
    else Nested_mmu.full_flush mmu
  done;
  let s = Tlb.stats (Nested_mmu.tlb mmu) in
  (s.Tlb.misses, s.Tlb.fracture_full_flushes)

let run_shape config shape =
  let full_misses, _ = run_regime config shape ~selective:false in
  let selective_misses, fracture_promotions = run_regime config shape ~selective:true in
  { shape; full_misses; selective_misses; fracture_promotions }

let run_all config = List.map (run_shape config) table4_rows

let build_mmu_for_tests = build_mmu
