type t = {
  mm_id : int;
  start_vpn : int;
  pages : int;
  full : bool;
  stride : Tlb.page_size;
  freed_tables : bool;
  new_tlb_gen : int;
}

let ranged ~mm_id ~start_vpn ~pages ~stride ~freed_tables ~new_tlb_gen =
  if pages <= 0 then invalid_arg "Flush_info.ranged: pages must be positive";
  { mm_id; start_vpn; pages; full = false; stride; freed_tables; new_tlb_gen }

let full ~mm_id ~freed_tables ~new_tlb_gen =
  { mm_id; start_vpn = 0; pages = 0; full = true; stride = Tlb.Four_k; freed_tables; new_tlb_gen }

let nr_entries t = if t.full then max_int else t.pages

let span_4k t = t.pages * Addr.pages_of_size t.stride

let nth_vpn t i = t.start_vpn + (i * Addr.pages_of_size t.stride)

let vpns t =
  if t.full then invalid_arg "Flush_info.vpns: full flush"
  else List.init t.pages (nth_vpn t)

let covers t ~vpn =
  t.full || (vpn >= t.start_vpn && vpn < t.start_vpn + span_4k t)

let merge a b =
  if a.mm_id <> b.mm_id then invalid_arg "Flush_info.merge: different address spaces";
  let freed_tables = a.freed_tables || b.freed_tables in
  let new_tlb_gen = Int.max a.new_tlb_gen b.new_tlb_gen in
  if a.full || b.full || a.stride <> b.stride then
    { (full ~mm_id:a.mm_id ~freed_tables ~new_tlb_gen) with freed_tables }
  else begin
    let lo = Int.min a.start_vpn b.start_vpn in
    let hi = Int.max (a.start_vpn + span_4k a) (b.start_vpn + span_4k b) in
    let step = Addr.pages_of_size a.stride in
    {
      mm_id = a.mm_id;
      start_vpn = lo;
      pages = (hi - lo + step - 1) / step;
      full = false;
      stride = a.stride;
      freed_tables;
      new_tlb_gen;
    }
  end
