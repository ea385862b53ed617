type t = {
  mm_id : int;
  pt : Page_table.t;
  mem : Frame_alloc.t;
  sem : Rwsem.t;
  mm_line : Cache.line;
  mutable gen : int;
  mask : Cpuset.t;
  mutable vma_set : Vma.Set.set;
  mutable next_vpn : int;
}

let create ~engine ~registry ~frames ~n_cpus ~id =
  {
    mm_id = id;
    pt = Page_table.create ();
    mem = frames;
    sem = Rwsem.create engine;
    mm_line = Cache.create_line registry;
    gen = 1;
    mask = Cpuset.create ~bits:n_cpus;
    vma_set = Vma.Set.empty;
    (* Start user mappings at 4 GiB to keep VPNs comfortably positive. *)
    next_vpn = 1 lsl 20;
  }

let id t = t.mm_id
let page_table t = t.pt
let frames t = t.mem
let mmap_sem t = t.sem
let line t = t.mm_line
let tlb_gen t = t.gen

let bump_tlb_gen t =
  t.gen <- t.gen + 1;
  t.gen

let cpuset t = t.mask
let cpu_set t ~cpu = Cpuset.set t.mask cpu
let cpu_clear t ~cpu = Cpuset.clear t.mask cpu

let vmas t = t.vma_set
let add_vma t vma = t.vma_set <- Vma.Set.add t.vma_set vma
let find_vma t ~vpn = Vma.Set.find t.vma_set ~vpn

let remove_vma_range t ~vpn ~pages =
  let set, removed = Vma.Set.remove_range t.vma_set ~vpn ~pages in
  t.vma_set <- set;
  removed

let reserve_va t ~min_vpn = t.next_vpn <- Stdlib.max t.next_vpn min_vpn

let alloc_va_range t ?(align = 1) ~pages () =
  if align <= 0 then invalid_arg "Mm_struct.alloc_va_range: align must be positive";
  let base = (t.next_vpn + align - 1) / align * align in
  (* Leave a guard page between mappings so off-by-one bugs fault. *)
  t.next_vpn <- base + pages + 1;
  base
