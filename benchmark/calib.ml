(* Host cost of single layer primitives, each timed in isolation on a
   fresh structure: the ns/op the traced run multiplies by its counters to
   attribute a cell's run time to layers. *)

type t = {
  dispatch_ns : float;  (** Engine.schedule_tag + step, one event *)
  lookup_ns : float;  (** Tlb.lookup hit *)
  lookup_miss_ns : float;
  insert_ns : float;  (** Tlb.insert at capacity (evicts) *)
  access_ns : float;  (** Cache.read/write, mean over transfer distances *)
  update_ns : float;  (** Page_table.update in place *)
  map_unmap_ns : float;  (** Page_table.map then unmap *)
  check_hit_ns : float;  (** Checker.check_hit, stamped fast path *)
  check_walk_ns : float;  (** Checker.check_hit, cold walk *)
}

(* Median of [reps] timings of [iters] calls, in ns per call. *)
let ns_per_op ?(reps = 5) ~iters f =
  let one () =
    let t0 = Unix.gettimeofday () in
    for i = 1 to iters do
      f i
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let samples = Array.init reps (fun _ -> one ()) in
  Array.sort Float.compare samples;
  samples.(reps / 2)

let entry ~vpn =
  {
    Tlb.vpn;
    pfn = vpn + 1;
    pcid = 1;
    size = Tlb.Four_k;
    global = false;
    writable = true;
    fractured = false;
    ck_ver = -1;
  }

let engine () =
  let e = Engine.create () in
  let tag = Engine.register_handler e (fun _ _ -> ()) in
  ns_per_op ~iters:200_000 (fun _ ->
      Engine.schedule_tag e ~delay:1 ~tag ~a:0 ~b:0;
      ignore (Engine.step e))

let tlb () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:7);
  let hit = ns_per_op ~iters:500_000 (fun _ -> ignore (Tlb.lookup t ~pcid:1 ~vpn:7)) in
  let miss = ns_per_op ~iters:500_000 (fun _ -> ignore (Tlb.lookup t ~pcid:1 ~vpn:9)) in
  let full = Tlb.create () in
  let insert =
    ns_per_op ~iters:200_000 (fun i -> Tlb.insert full (entry ~vpn:(1000 + i)))
  in
  (hit, miss, insert)

(* CPU 0 writes a line, then it or, every other iteration, a partner
   reads it: CPU 0 itself (local hits), its SMT sibling, a same-socket
   core and a cross-socket core of the paper's machine. *)
let cache () =
  let topo = Topology.paper_machine in
  let reg = Cache.create_registry topo Costs.default in
  let partners = [ 0; Option.get (Topology.smt_sibling_of topo 0); 1; 14 ] in
  let per_partner =
    List.map
      (fun other ->
        let line = Cache.create_line reg ~name:(lazy "calib") in
        ns_per_op ~iters:200_000 (fun i ->
            ignore (Cache.write line ~by:0);
            ignore (Cache.read line ~by:(if i land 1 = 0 then other else 0)))
        /. 2.0)
      partners
  in
  List.fold_left ( +. ) 0.0 per_partner /. float_of_int (List.length per_partner)

let page_table () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:7 ~size:Tlb.Four_k (Pte.user_data ~pfn:8);
  let update =
    ns_per_op ~iters:500_000 (fun _ ->
        ignore (Page_table.update pt ~vpn:7 ~f:Pte.mark_dirty))
  in
  let map_unmap =
    ns_per_op ~iters:200_000 (fun i ->
        let vpn = 4096 + (i land 1023) in
        Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:vpn);
        ignore (Page_table.unmap pt ~vpn ()))
  in
  (update, map_unmap)

let checker () =
  let ck = Checker.create () in
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:7 ~size:Tlb.Four_k (Pte.user_data ~pfn:8);
  let e = { (entry ~vpn:7) with Tlb.pfn = 8 } in
  let check () =
    ignore (Checker.check_hit ck ~now:0 ~cpu:0 ~mm_id:1 ~vpn:7 ~write:true ~entry:e ~pt)
  in
  let stamped = ns_per_op ~iters:500_000 (fun _ -> check ()) in
  let walk =
    ns_per_op ~iters:500_000 (fun _ ->
        e.Tlb.ck_ver <- -1;
        check ())
  in
  (stamped, walk)

let run () =
  let dispatch_ns = engine () in
  let lookup_ns, lookup_miss_ns, insert_ns = tlb () in
  let access_ns = cache () in
  let update_ns, map_unmap_ns = page_table () in
  let check_hit_ns, check_walk_ns = checker () in
  {
    dispatch_ns;
    lookup_ns;
    lookup_miss_ns;
    insert_ns;
    access_ns;
    update_ns;
    map_unmap_ns;
    check_hit_ns;
    check_walk_ns;
  }
