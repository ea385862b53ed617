(* Unit tests for the hardware model: Topology, Costs, Cache, Tlb, Cpu,
   Apic. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let dist_t =
  Alcotest.testable Topology.pp_distance (fun a b -> a = b)

(* --- Topology --- *)

let test_topology_sizes () =
  let t = Topology.paper_machine in
  check int_t "56 logical CPUs" 56 (Topology.n_cpus t);
  check int_t "sockets" 2 (Topology.sockets t);
  let flat = Topology.flat 4 in
  check int_t "flat n_cpus" 4 (Topology.n_cpus flat)

let test_topology_socket_mapping () =
  let t = Topology.paper_machine in
  check int_t "cpu0 on socket 0" 0 (Topology.socket_of t 0);
  check int_t "cpu13 on socket 0" 0 (Topology.socket_of t 13);
  check int_t "cpu14 on socket 1" 1 (Topology.socket_of t 14);
  check int_t "cpu27 on socket 1" 1 (Topology.socket_of t 27);
  (* SMT siblings (28..55) mirror the first 28. *)
  check int_t "cpu28 on socket 0" 0 (Topology.socket_of t 28);
  check int_t "cpu42 on socket 1" 1 (Topology.socket_of t 42)

let test_topology_smt_sibling () =
  let t = Topology.paper_machine in
  check (Alcotest.option int_t) "sibling of 0" (Some 28) (Topology.smt_sibling_of t 0);
  check (Alcotest.option int_t) "sibling of 28" (Some 0) (Topology.smt_sibling_of t 28);
  check (Alcotest.option int_t) "sibling of 14" (Some 42) (Topology.smt_sibling_of t 14);
  let flat = Topology.flat 4 in
  check (Alcotest.option int_t) "no SMT" None (Topology.smt_sibling_of flat 2)

let test_topology_distance () =
  let t = Topology.paper_machine in
  check dist_t "self" Topology.Self (Topology.distance t 3 3);
  check dist_t "smt" Topology.Smt_sibling (Topology.distance t 0 28);
  check dist_t "same socket" Topology.Same_socket (Topology.distance t 0 1);
  check dist_t "same socket across threads" Topology.Same_socket (Topology.distance t 0 29);
  check dist_t "cross socket" Topology.Cross_socket (Topology.distance t 0 14)

let test_topology_clusters () =
  let t = Topology.paper_machine in
  (* APIC ids pack SMT in bit 0: cpu0 -> 0, cpu28 -> 1 (same cluster). *)
  check int_t "cpu0 cluster" (Topology.cluster_of t 0) (Topology.cluster_of t 28);
  (* 14 cores x 2 threads = 28 APIC ids per socket: crosses the 16 boundary. *)
  check bool_t "socket 0 spans clusters" true
    (Topology.cluster_of t 0 <> Topology.cluster_of t 13);
  let groups = Topology.clusters_of_targets t [ 0; 1; 13; 14 ] in
  let total = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 groups in
  check int_t "all targets grouped" 4 total

let test_topology_cpus_of_socket () =
  let t = Topology.paper_machine in
  check (Alcotest.list int_t) "socket 0 primaries"
    (List.init 14 Fun.id)
    (Topology.cpus_of_socket t 0);
  check (Alcotest.list int_t) "socket 1 primaries"
    (List.init 14 (fun i -> 14 + i))
    (Topology.cpus_of_socket t 1)

let test_topology_bounds () =
  let t = Topology.flat 2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Topology: cpu 2 out of range [0,2)")
    (fun () -> ignore (Topology.socket_of t 2))

(* --- Costs --- *)

let test_costs_monotone_distance () =
  let c = Costs.default in
  check bool_t "ipi grows with distance" true
    (Costs.ipi_latency c Topology.Smt_sibling < Costs.ipi_latency c Topology.Same_socket
    && Costs.ipi_latency c Topology.Same_socket < Costs.ipi_latency c Topology.Cross_socket);
  check bool_t "lines grow with distance" true
    (Costs.line_transfer c Topology.Self < Costs.line_transfer c Topology.Same_socket
    && Costs.line_transfer c Topology.Same_socket < Costs.line_transfer c Topology.Cross_socket)

let test_costs_mode_asymmetry () =
  let c = Costs.default in
  check bool_t "safe entry dearer" true
    (Costs.syscall_entry c ~safe:true > Costs.syscall_entry c ~safe:false);
  check bool_t "user irq entry dearer in safe mode" true
    (Costs.irq_entry c ~safe:true ~from_user:true > Costs.irq_entry c ~safe:true ~from_user:false);
  check bool_t "invpcid slower than invlpg" true (c.Costs.invpcid_single > c.Costs.invlpg)

(* --- Cache --- *)

let make_cache () =
  Cache.create_registry Topology.paper_machine Costs.default

let test_cache_first_touch_local () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  check int_t "first read local" Costs.default.Costs.line_local (Cache.read l ~by:0);
  check int_t "second read local" Costs.default.Costs.line_local (Cache.read l ~by:0)

let test_cache_remote_read_costs_transfer () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  check int_t "cross-socket read" Costs.default.Costs.line_cross_socket (Cache.read l ~by:14);
  (* Now shared: reading again is local. *)
  check int_t "now cached" Costs.default.Costs.line_local (Cache.read l ~by:14)

let test_cache_write_invalidates_sharers () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  ignore (Cache.read l ~by:14);
  (* A plain store retires through the store buffer: local cost for the
     writer, but the cross-socket sharer is invalidated. *)
  check int_t "write is local for the writer" Costs.default.Costs.line_local
    (Cache.write l ~by:1);
  (* A stalling write (or atomic) pays the farthest holder. *)
  ignore (Cache.read l ~by:14);
  check int_t "stalling write pays farthest" Costs.default.Costs.line_cross_socket
    (Cache.stalling_write l ~by:1);
  (* 14 lost the line either way. *)
  check int_t "14 re-reads remotely" Costs.default.Costs.line_cross_socket
    (Cache.read l ~by:14)

let test_cache_exclusive_write_is_local () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:5);
  check int_t "exclusive rewrite local" Costs.default.Costs.line_local (Cache.write l ~by:5)

let test_cache_atomic_cost () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  let expected = Costs.default.Costs.line_cross_socket + Costs.default.Costs.atomic_op in
  check int_t "atomic = write + lock" expected (Cache.atomic l ~by:14)

let test_cache_totals () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  ignore (Cache.read l ~by:14);
  ignore (Cache.read l ~by:1);
  let t = Cache.totals reg in
  check int_t "writes" 1 t.Cache.writes;
  check int_t "reads" 2 t.Cache.reads;
  check int_t "cross transfers" 1 t.Cache.cross_socket_transfers;
  check int_t "same-socket transfers" 1 t.Cache.same_socket_transfers;
  Cache.reset_stats reg;
  check int_t "reset" 0 (Cache.totals reg).Cache.reads

let flat4 = Topology.flat 4
let topo_3x5 = Topology.create ~sockets:3 ~cores_per_socket:5 ~smt:1
let topo_8x64x2 = Topology.create ~sockets:8 ~cores_per_socket:64 ~smt:2
let pricing_topologies = [ flat4; Topology.paper_machine; topo_3x5; topo_8x64x2 ]

(* The registry's precomputed location table must price every (owner,
   reader) pair exactly as [Topology.distance] says, on every shape of
   topology. A write by [a] leaves [a] the only holder, so the read by [b]
   that follows is priced by the rank of the pair alone. *)
let test_cache_ranks_match_topology () =
  let c = Costs.default in
  List.iter
    (fun topo ->
      let reg = Cache.create_registry topo c in
      let l = Cache.create_line reg ~name:(lazy "x") in
      let n = Topology.n_cpus topo in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          ignore (Cache.write l ~by:a);
          let expected = Costs.line_transfer c (Topology.distance topo a b) in
          if Cache.read l ~by:b <> expected then
            Alcotest.failf "%a: read of cpu %d's line by cpu %d" Topology.pp topo a b
        done
      done)
    (pricing_topologies
    @ [
        Topology.flat 5;
        Topology.create ~sockets:3 ~cores_per_socket:4 ~smt:2;
        Topology.create ~sockets:2 ~cores_per_socket:2 ~smt:4;
        Topology.create ~sockets:1 ~cores_per_socket:1 ~smt:2;
      ])

(* Black-box differential test of coherence pricing: random reads, writes,
   stalling writes and atomics over several lines, against a naive model
   that keeps an owner and a holder list per line and ranks holders with
   [Topology.distance]. Every returned cost and the final totals must
   agree. Half the accesses come from a few hot CPUs per line, so local
   hits, exclusive rewrites and SMT-sibling fetches all occur. On the
   1024-CPU topology a prefix of reads grows line 0's sharer set through
   Cpuset doubling to 1, 18 and then 36 words, past the 32 words that 1024
   CPUs need. *)
let test_cache_vs_naive_model () =
  let c = Costs.default in
  List.iter
    (fun topo ->
      let n = Topology.n_cpus topo in
      let reg = Cache.create_registry topo c in
      let n_lines = 4 in
      let lines = Array.init n_lines (fun _ -> Cache.create_line reg ~name:(lazy "x")) in
      let owner = Array.make n_lines (-1) in
      let holders = Array.make n_lines [] in
      let reads = ref 0 and writes = ref 0 and cycles = ref 0 in
      let by_rank = Array.make Topology.n_distance_ranks 0 in
      let record d cost =
        let r = Topology.distance_rank d in
        by_rank.(r) <- by_rank.(r) + 1;
        cycles := !cycles + cost
      in
      (* The closest ([pick] = min) or farthest holder other than [by];
         [Self] when there is none. *)
      let extreme i ~by pick =
        let all = if owner.(i) >= 0 then owner.(i) :: holders.(i) else holders.(i) in
        let better d b = pick (Topology.distance_rank d) (Topology.distance_rank b) in
        match
          List.filter_map
            (fun h -> if h = by then None else Some (Topology.distance topo by h))
            all
        with
        | [] -> Topology.Self
        | d :: ds -> List.fold_left (fun b d -> if better d b then d else b) d ds
      in
      let exclusive i ~by =
        owner.(i) = by && List.for_all (fun h -> h = by) holders.(i)
      in
      let take i ~by =
        owner.(i) <- by;
        holders.(i) <- [ by ]
      in
      let model_read i ~by =
        incr reads;
        let d =
          if owner.(i) = by || List.mem by holders.(i) then Topology.Self
          else extreme i ~by ( < )
        in
        let cost = Costs.line_transfer c d in
        record d cost;
        if not (List.mem by holders.(i)) then holders.(i) <- by :: holders.(i);
        cost
      in
      let model_write i ~by ~stall =
        incr writes;
        let d = if exclusive i ~by then Topology.Self else extreme i ~by ( > ) in
        let cost = if stall then Costs.line_transfer c d else c.Costs.line_local in
        record d cost;
        take i ~by;
        cost
      in
      let step what i ~by ~got ~want =
        if got <> want then
          Alcotest.failf "%a: %s of line %d by cpu %d cost %d, model %d" Topology.pp
            topo what i by got want
      in
      let read i ~by =
        step "read" i ~by ~got:(Cache.read lines.(i) ~by) ~want:(model_read i ~by)
      in
      if n = 1024 then List.iter (fun by -> read 0 ~by) [ 0; 544; 1023; 3 ];
      let hot = Array.init n_lines (fun i -> [| i; (i + 1) mod n; (i + n / 2) mod n |]) in
      let r = Rng.create ~seed:(Int64.of_int (0xCAC4E + n)) in
      for _ = 1 to 3000 do
        let i = Rng.int r n_lines in
        let by = if Rng.int r 2 = 0 then hot.(i).(Rng.int r 3) else Rng.int r n in
        match Rng.int r 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 -> read i ~by
        | 6 | 7 ->
            step "write" i ~by ~got:(Cache.write lines.(i) ~by)
              ~want:(model_write i ~by ~stall:false)
        | 8 ->
            step "stalling write" i ~by
              ~got:(Cache.stalling_write lines.(i) ~by)
              ~want:(model_write i ~by ~stall:true)
        | _ ->
            step "atomic" i ~by ~got:(Cache.atomic lines.(i) ~by)
              ~want:(model_write i ~by ~stall:true + c.Costs.atomic_op)
      done;
      let t = Cache.totals reg in
      let total what got want =
        if got <> want then
          Alcotest.failf "%a: total %s %d, model %d" Topology.pp topo what got want
      in
      total "reads" t.Cache.reads !reads;
      total "writes" t.Cache.writes !writes;
      total "local hits" t.Cache.local_hits by_rank.(0);
      total "smt transfers" t.Cache.smt_transfers by_rank.(1);
      total "same-socket transfers" t.Cache.same_socket_transfers by_rank.(2);
      total "cross-socket transfers" t.Cache.cross_socket_transfers by_rank.(3);
      total "cycles" t.Cache.cycles !cycles)
    pricing_topologies

(* --- Tlb --- *)

let entry ?(pcid = 1) ?(global = false) ?(size = Tlb.Four_k) ?(fractured = false)
    ?(writable = true) ~vpn ~pfn () =
  { Tlb.vpn; pfn; pcid; size; global; writable; fractured; ck_ver = -1 }

let test_tlb_hit_miss () =
  let t = Tlb.create () in
  check bool_t "miss" true (Tlb.lookup t ~pcid:1 ~vpn:100 = None);
  Tlb.insert t (entry ~vpn:100 ~pfn:5 ());
  (match Tlb.lookup t ~pcid:1 ~vpn:100 with
  | Some e -> check int_t "pfn" 5 e.Tlb.pfn
  | None -> Alcotest.fail "expected hit");
  let s = Tlb.stats t in
  check int_t "one hit" 1 s.Tlb.hits;
  check int_t "one miss" 1 s.Tlb.misses

let test_tlb_pcid_isolation () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~vpn:100 ~pfn:5 ());
  check bool_t "other pcid misses" true (Tlb.lookup t ~pcid:2 ~vpn:100 = None)

let test_tlb_global_matches_any_pcid () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~global:true ~vpn:200 ~pfn:9 ());
  check bool_t "hit under pcid 7" true (Tlb.lookup t ~pcid:7 ~vpn:200 <> None)

let test_tlb_huge_covers_4k_lookups () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~size:Tlb.Two_m ~vpn:1024 ~pfn:4096 ());
  check bool_t "base hit" true (Tlb.lookup t ~pcid:1 ~vpn:1024 <> None);
  check bool_t "offset hit" true (Tlb.lookup t ~pcid:1 ~vpn:(1024 + 511) <> None);
  check bool_t "outside misses" true (Tlb.lookup t ~pcid:1 ~vpn:(1024 + 512) = None)

let test_tlb_invlpg_selective () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:1 ~pfn:11 ());
  Tlb.insert t (entry ~vpn:2 ~pfn:12 ());
  Tlb.invlpg t ~current_pcid:1 ~vpn:1;
  check bool_t "vpn1 gone" false (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "vpn2 stays" true (Tlb.mem t ~pcid:1 ~vpn:2)

let test_tlb_invlpg_drops_globals_and_pwc () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~global:true ~vpn:3 ~pfn:13 ());
  Tlb.warm_pwc t;
  Tlb.invlpg t ~current_pcid:1 ~vpn:3;
  check bool_t "global gone" false (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "pwc cooled" false (Tlb.pwc_warm t)

let test_tlb_invpcid_keeps_pwc () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:4 ~vpn:3 ~pfn:13 ());
  Tlb.warm_pwc t;
  Tlb.invpcid_addr t ~pcid:4 ~vpn:3;
  check bool_t "entry gone" false (Tlb.mem t ~pcid:4 ~vpn:3);
  check bool_t "pwc still warm" true (Tlb.pwc_warm t)

let test_tlb_cr3_flush_spares_globals () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~vpn:1 ~pfn:1 ());
  Tlb.insert t (entry ~pcid:1 ~global:true ~vpn:2 ~pfn:2 ());
  Tlb.insert t (entry ~pcid:2 ~vpn:3 ~pfn:3 ());
  Tlb.cr3_flush t ~pcid:1;
  check bool_t "pcid1 non-global gone" false (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "global survives" true (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "pcid2 untouched" true (Tlb.mem t ~pcid:2 ~vpn:3)

let test_tlb_capacity_eviction () =
  let t = Tlb.create ~capacity:4 () in
  for i = 0 to 9 do
    Tlb.insert t (entry ~vpn:i ~pfn:i ())
  done;
  check bool_t "bounded" true (Tlb.occupancy t <= 4);
  check bool_t "newest present" true (Tlb.mem t ~pcid:1 ~vpn:9);
  check bool_t "oldest evicted" false (Tlb.mem t ~pcid:1 ~vpn:0);
  check bool_t "evictions counted" true ((Tlb.stats t).Tlb.evictions >= 6)

let test_tlb_fracture_promotion () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:1 ~pfn:1 ());
  Tlb.insert t (entry ~fractured:true ~vpn:2 ~pfn:2 ());
  check bool_t "flag set" true (Tlb.fracture_flag t);
  (* Selective flush of an unrelated address nukes everything. *)
  Tlb.invlpg t ~current_pcid:1 ~vpn:999;
  check bool_t "vpn1 gone too" false (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "vpn2 gone" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "flag cleared" false (Tlb.fracture_flag t);
  check int_t "promotion counted" 1 (Tlb.stats t).Tlb.fracture_full_flushes

let test_tlb_drop_no_side_effects () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~fractured:true ~vpn:2 ~pfn:2 ());
  Tlb.insert t (entry ~vpn:3 ~pfn:3 ());
  Tlb.warm_pwc t;
  Tlb.drop t ~pcid:1 ~vpn:2;
  check bool_t "dropped" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "other survives" true (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "pwc warm" true (Tlb.pwc_warm t);
  check int_t "no promotion" 0 (Tlb.stats t).Tlb.fracture_full_flushes

let test_tlb_flush_all () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:1 ~pfn:1 ());
  Tlb.insert t (entry ~global:true ~vpn:2 ~pfn:2 ());
  Tlb.flush_all t;
  check int_t "empty" 0 (Tlb.occupancy t);
  check int_t "counted" 1 (Tlb.stats t).Tlb.full_flushes

(* Regression: a key invalidated and later re-inserted used to keep its
   original (now dead) slot near the head of the FIFO queue, so the next
   eviction removed the brand-new entry instead of the oldest live one. *)
let test_tlb_reinsert_after_invalidate_is_youngest () =
  let t = Tlb.create ~capacity:4 () in
  for i = 1 to 4 do
    Tlb.insert t (entry ~vpn:i ~pfn:i ())
  done;
  Tlb.drop t ~pcid:1 ~vpn:1;
  Tlb.insert t (entry ~vpn:1 ~pfn:11 ());
  check int_t "full again" 4 (Tlb.occupancy t);
  (* Inserting a fifth key must evict vpn 2 (the oldest live entry), not
     the just-re-inserted vpn 1. *)
  Tlb.insert t (entry ~vpn:5 ~pfn:5 ());
  check bool_t "re-inserted key survives" true (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "oldest live key evicted" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "vpn3 stays" true (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "vpn4 stays" true (Tlb.mem t ~pcid:1 ~vpn:4);
  check bool_t "new key present" true (Tlb.mem t ~pcid:1 ~vpn:5);
  check int_t "exactly one eviction" 1 (Tlb.stats t).Tlb.evictions;
  check int_t "occupancy exact" 4 (Tlb.occupancy t)

(* Random inserts/overwrites/invalidations/flushes against a reference
   FIFO model: membership, occupancy and eviction victim must match the
   model after every operation. *)
let test_tlb_random_vs_fifo_model () =
  let cap = 8 in
  let n_pcids = 2 and n_vpns = 24 in
  let t = Tlb.create ~capacity:cap () in
  (* Reference model: live (pcid, vpn) keys, oldest first. Overwriting a
     live key keeps its position (FIFO, not LRU); inserting a new key at
     capacity evicts the head. *)
  let model = ref [] in
  let r = Rng.create ~seed:0xF1F0L in
  for step = 1 to 4000 do
    let pcid = 1 + Rng.int r n_pcids and vpn = Rng.int r n_vpns in
    (match Rng.int r 12 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
        if not (List.mem (pcid, vpn) !model) then begin
          if List.length !model >= cap then model := List.tl !model;
          model := !model @ [ (pcid, vpn) ]
        end;
        Tlb.insert t (entry ~pcid ~vpn ~pfn:vpn ())
    | 7 | 8 ->
        model := List.filter (fun k -> k <> (pcid, vpn)) !model;
        Tlb.drop t ~pcid ~vpn
    | 9 | 10 ->
        model := List.filter (fun (p, _) -> p <> pcid) !model;
        Tlb.flush_pcid t ~pcid
    | _ ->
        model := [];
        Tlb.flush_all t);
    if Tlb.occupancy t <> List.length !model then
      Alcotest.failf "step %d: occupancy %d, model %d" step (Tlb.occupancy t)
        (List.length !model);
    for p = 1 to n_pcids do
      for v = 0 to n_vpns - 1 do
        let expect = List.mem (p, v) !model in
        if Tlb.mem t ~pcid:p ~vpn:v <> expect then
          Alcotest.failf "step %d: (%d,%d) %s" step p v
            (if expect then "missing" else "present")
      done
    done
  done;
  check bool_t "model agreed for 4000 steps" true true

(* Same contents, different histories: [a] is built directly; [b] first
   grows its tables past 512 buckets, flushes, then inserts the same
   entries in reverse order around entries it drops again. The listing
   must not depend on bucket count or insertion history. *)
let test_tlb_entries_history_independent () =
  let contents =
    List.concat
      [
        List.init 40 (fun i -> entry ~pcid:(1 + (i mod 3)) ~vpn:(1000 + (i * 7)) ~pfn:i ());
        List.init 5 (fun i -> entry ~global:true ~vpn:(50 + i) ~pfn:(100 + i) ());
        List.init 3 (fun i -> entry ~size:Tlb.Two_m ~vpn:((i + 1) * 512) ~pfn:(512 * i) ());
      ]
  in
  let a = Tlb.create () in
  List.iter (Tlb.insert a) contents;
  let b = Tlb.create () in
  for v = 0 to 999 do
    Tlb.insert b (entry ~pcid:5 ~vpn:(100_000 + v) ~pfn:v ())
  done;
  Tlb.flush_all b;
  List.iteri
    (fun i e ->
      Tlb.insert b e;
      if i mod 4 = 0 then begin
        Tlb.insert b (entry ~pcid:9 ~vpn:(200_000 + i) ~pfn:i ());
        Tlb.drop b ~pcid:9 ~vpn:(200_000 + i)
      end)
    (List.rev contents);
  let listing t =
    List.map
      (fun (e : Tlb.entry) -> (e.Tlb.vpn, e.Tlb.pfn, e.Tlb.pcid, e.Tlb.global, e.Tlb.size))
      (Tlb.entries t)
  in
  check int_t "same occupancy" (Tlb.occupancy a) (Tlb.occupancy b);
  check bool_t "identical entries, in the same order" true (listing a = listing b);
  check int_t "every entry listed" (List.length contents) (List.length (listing a))

(* --- Cpu + Apic --- *)

let make_machine_parts () =
  let e = Engine.create () in
  let topo = Topology.paper_machine in
  let c = Costs.default in
  let cpus =
    Array.init (Topology.n_cpus topo) (fun id ->
        Cpu.create e topo c ~id ~safe:false ())
  in
  let apic = Apic.create e topo c ~cpus in
  (e, topo, c, cpus, apic)

let test_cpu_compute_accounting () =
  let e, _, _, cpus, _ = make_machine_parts () in
  Process.spawn e ~name:"worker" (fun () -> Cpu.compute cpus.(0) 1000);
  Engine.run e;
  check int_t "time advanced" 1000 (Engine.now e);
  check int_t "compute recorded" 1000 (Cpu.compute_cycles cpus.(0))

let test_ipi_delivery_and_interruption () =
  let e, _, c, cpus, apic = make_machine_parts () in
  let handled = ref false in
  Process.spawn e ~name:"sender" (fun () ->
      let cost =
        Apic.send_ipi apic ~from:0 ~targets:[ 14 ]
          ~make_irq:(fun _ ->
            {
              Cpu.vector = 1;
              maskable = true;
              handler =
                (fun cpu ->
                  handled := true;
                  Process.delay e 500;
                  ignore cpu);
            })
      in
      Process.delay e cost);
  Process.spawn e ~name:"responder" (fun () -> Cpu.compute cpus.(14) 20_000);
  Engine.run e;
  check bool_t "handled" true !handled;
  check int_t "one irq" 1 (Cpu.irqs_handled cpus.(14));
  let expected_min = 500 + Costs.irq_entry c ~safe:false ~from_user:true + c.Costs.irq_exit in
  check bool_t "interruption includes entry+handler+exit" true
    (Cpu.interrupted_cycles cpus.(14) >= expected_min)

let test_irq_masking_defers () =
  let e, _, _, cpus, apic = make_machine_parts () in
  let handled_at = ref (-1) in
  let target = cpus.(1) in
  Process.spawn e ~name:"receiver" (fun () ->
      Cpu.irq_disable target;
      Cpu.compute target 5_000;
      (* IRQ arrives during this window but must wait. *)
      Cpu.irq_enable target);
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 100;
      ignore
        (Apic.send_ipi apic ~from:0 ~targets:[ 1 ]
           ~make_irq:(fun _ ->
             {
               Cpu.vector = 2;
               maskable = true;
               handler = (fun _ -> handled_at := Engine.now e);
             })));
  Engine.run e;
  check bool_t "deferred past mask window" true (!handled_at >= 5_000)

let test_nmi_bypasses_mask () =
  let e, _, _, cpus, _ = make_machine_parts () in
  let handled = ref false in
  let target = cpus.(2) in
  Process.spawn e ~name:"receiver" (fun () ->
      Cpu.irq_disable target;
      Cpu.post_irq target
        { Cpu.vector = 2; maskable = false; handler = (fun _ -> handled := true) };
      Cpu.compute target 1_000;
      check bool_t "NMI ran while masked" true !handled;
      Cpu.irq_enable target);
  Engine.run e

let test_spin_until_services_irqs () =
  let e, _, _, cpus, apic = make_machine_parts () in
  let flag = ref false in
  Process.spawn e ~name:"spinner" (fun () ->
      Cpu.spin_until cpus.(3) (fun () -> !flag));
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 1_000;
      ignore
        (Apic.send_ipi apic ~from:0 ~targets:[ 3 ]
           ~make_irq:(fun _ ->
             { Cpu.vector = 3; maskable = true; handler = (fun _ -> flag := true) })));
  Engine.run e;
  check bool_t "spinner released by irq" true !flag

let test_apic_multicast_cluster_cost () =
  let e, topo, c, _, apic = make_machine_parts () in
  (* Targets in different clusters need several ICR writes. *)
  let targets = [ 1; 13; 14; 27 ] in
  let clusters = List.length (Topology.clusters_of_targets topo targets) in
  Process.spawn e ~name:"sender" (fun () ->
      let cost =
        Apic.send_ipi apic ~from:0 ~targets ~make_irq:(fun _ ->
            { Cpu.vector = 9; maskable = true; handler = (fun _ -> ()) })
      in
      check int_t "one ICR write per cluster" (clusters * c.Costs.icr_write) cost);
  Engine.run e;
  check int_t "icr writes counted" clusters (Apic.icr_writes apic);
  check int_t "ipis counted" (List.length targets) (Apic.ipis_sent apic)

let test_apic_rejects_self_ipi () =
  let e, _, _, _, apic = make_machine_parts () in
  Process.spawn e ~name:"sender" (fun () ->
      Alcotest.check_raises "self ipi"
        (Invalid_argument "Apic.send_ipi: self-IPI not supported") (fun () ->
          ignore
            (Apic.send_ipi apic ~from:0 ~targets:[ 0 ] ~make_irq:(fun _ ->
                 { Cpu.vector = 1; maskable = true; handler = (fun _ -> ()) }))));
  Engine.run e

let test_idle_wait_wakes_on_irq () =
  let e, _, _, cpus, apic = make_machine_parts () in
  let woke_at = ref (-1) in
  Process.spawn e ~name:"idler" (fun () ->
      Cpu.idle_wait cpus.(4);
      woke_at := Engine.now e);
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 2_000;
      ignore
        (Apic.send_ipi apic ~from:0 ~targets:[ 4 ] ~make_irq:(fun _ ->
             { Cpu.vector = 1; maskable = true; handler = (fun _ -> ()) })));
  Engine.run e;
  check bool_t "woken after delivery" true (!woke_at > 2_000)

(* --- Detached IRQ dispatch --- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

let lone_cpu () =
  let e = Engine.create () in
  (e, Cpu.create e (Topology.flat 2) Costs.default ~id:1 ~safe:false ())

(* Exact minor words per detached dispatch of a no-op IRQ to an idle CPU,
   from two runs that differ only in the number of dispatches, so the
   first dispatch (which builds the CPU's dispatcher) cancels out. An
   engine event every cycle keeps the entry and exit delays off the
   [try_advance] fast path. What is left per IRQ: its [pending] queue cell
   (3 words) and the pooled handler process's start (5). The entry and
   exit boundaries are events on the CPU's dispatch handler, so neither
   suspends a process. A process spawned per dispatch would cost 64 words
   on top. *)
let test_dispatch_words () =
  let period = 2048 in
  let words n =
    let e, cpu = lone_cpu () in
    let irq = { Cpu.vector = 1; maskable = true; handler = ignore } in
    let tag = ref (-1) in
    tag :=
      Engine.register_handler e (fun left _ ->
          if left mod period = 0 then Cpu.post_irq cpu irq;
          if left > 0 then Engine.schedule_tag e ~delay:1 ~tag:!tag ~a:(left - 1) ~b:0);
    let w =
      minor_words (fun () ->
          Engine.schedule_tag e ~delay:0 ~tag:!tag ~a:(n * period) ~b:0;
          Engine.run e)
    in
    check int_t "every irq handled" (n + 1) (Cpu.irqs_handled cpu);
    w
  in
  let n1 = 20 and n2 = 220 in
  check int_t "8 words per detached dispatch" (8 * (n2 - n1)) (words n2 - words n1)

(* A scripted idle CPU: IRQs posted while a dispatcher is mid-handler,
   while the CPU is masked, twice in one instant, and inside an exit
   window that another event makes contended, then a handler that raises.
   The (time, vector) log pins when each IRQ ran and that each ran exactly
   once. *)
let test_dispatch_script () =
  let e, cpu = lone_cpu () in
  let log = ref [] in
  let irq ?(maskable = true) ?(cycles = 0) vector =
    {
      Cpu.vector;
      maskable;
      handler =
        (fun _ ->
          log := (Engine.now e, vector) :: !log;
          Process.delay e cycles);
    }
  in
  Process.spawn e ~name:"script" (fun () ->
      (* The running drain takes both later arrivals; no second dispatch. *)
      Cpu.post_irq cpu (irq ~cycles:1000 1);
      Process.delay e 300;
      Cpu.post_irq cpu (irq ~cycles:200 2);
      Process.delay e 100;
      Cpu.post_irq cpu (irq ~maskable:false 3);
      Process.delay e 5000;
      (* Masked: the unmaskable IRQ is dispatched, the maskable one waits
         and runs in this process at [irq_enable]. *)
      Cpu.irq_disable cpu;
      Cpu.post_irq cpu (irq 4);
      Cpu.post_irq cpu (irq ~maskable:false ~cycles:300 5);
      Process.delay e 2000;
      check int_t "masked irq still pending" 1 (Cpu.pending_irqs cpu);
      Cpu.irq_enable cpu;
      check int_t "irq_enable ran it" 0 (Cpu.pending_irqs cpu);
      Process.delay e 1000;
      (* Two posts in one instant start two dispatches. The first drains
         both IRQs; the second finds the drain running and handles
         nothing. *)
      Cpu.post_irq cpu (irq ~cycles:50 6);
      Cpu.post_irq cpu (irq 7);
      Process.delay e 2000;
      (* IRQ 10's entry and handler windows are empty and take the fast
         path; this process's wake-up falls inside its exit, so the exit is
         an engine event, and IRQ 11, posted at that wake-up, is the drain's
         next IRQ after it. *)
      Cpu.post_irq cpu (irq ~cycles:100 10);
      Process.delay e 470;
      Cpu.post_irq cpu (irq 11));
  Engine.run e;
  check
    Alcotest.(list (pair int int))
    "handled (time, vector)"
    [
      (320, 1);
      (1840, 2);
      (2560, 3);
      (5720, 5);
      (7720, 4);
      (9240, 6);
      (9810, 7);
      (11240, 10);
      (11860, 11);
    ]
    (List.rev !log);
  check int_t "each irq handled once" 9 (Cpu.irqs_handled cpu);
  check int_t "nothing pending" 0 (Cpu.pending_irqs cpu);
  Cpu.post_irq cpu { Cpu.vector = 8; maskable = true; handler = (fun _ -> failwith "boom") };
  Alcotest.check_raises "a failing handler fails its dispatcher"
    (Process.Process_failure ("irq-dispatch-cpu1", Failure "boom"))
    (fun () -> Engine.run e);
  check bool_t "the failed drain was ended" false (Cpu.draining cpu);
  check int_t "no dispatcher left busy" 0 (Cpu.busy_dispatchers cpu);
  (* The failed dispatcher is gone; the next IRQ still gets one. *)
  Cpu.post_irq cpu (irq 9);
  Engine.run e;
  check int_t "dispatch works after a failure" 9 (snd (List.hd !log))

let suite =
  [
    Alcotest.test_case "topology: sizes" `Quick test_topology_sizes;
    Alcotest.test_case "topology: socket mapping" `Quick test_topology_socket_mapping;
    Alcotest.test_case "topology: smt siblings" `Quick test_topology_smt_sibling;
    Alcotest.test_case "topology: distance" `Quick test_topology_distance;
    Alcotest.test_case "topology: x2apic clusters" `Quick test_topology_clusters;
    Alcotest.test_case "topology: cpus_of_socket" `Quick test_topology_cpus_of_socket;
    Alcotest.test_case "topology: bounds checking" `Quick test_topology_bounds;
    Alcotest.test_case "costs: monotone in distance" `Quick test_costs_monotone_distance;
    Alcotest.test_case "costs: mode asymmetries" `Quick test_costs_mode_asymmetry;
    Alcotest.test_case "cache: first touch local" `Quick test_cache_first_touch_local;
    Alcotest.test_case "cache: remote read transfer" `Quick test_cache_remote_read_costs_transfer;
    Alcotest.test_case "cache: write invalidates sharers" `Quick test_cache_write_invalidates_sharers;
    Alcotest.test_case "cache: exclusive write local" `Quick test_cache_exclusive_write_is_local;
    Alcotest.test_case "cache: atomic cost" `Quick test_cache_atomic_cost;
    Alcotest.test_case "cache: totals and reset" `Quick test_cache_totals;
    Alcotest.test_case "cache: ranks match Topology.distance" `Quick
      test_cache_ranks_match_topology;
    Alcotest.test_case "cache: random accesses vs naive model" `Quick
      test_cache_vs_naive_model;
    Alcotest.test_case "tlb: hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb: pcid isolation" `Quick test_tlb_pcid_isolation;
    Alcotest.test_case "tlb: global matches any pcid" `Quick test_tlb_global_matches_any_pcid;
    Alcotest.test_case "tlb: hugepage covers 4K lookups" `Quick test_tlb_huge_covers_4k_lookups;
    Alcotest.test_case "tlb: invlpg selective" `Quick test_tlb_invlpg_selective;
    Alcotest.test_case "tlb: invlpg drops globals+pwc" `Quick test_tlb_invlpg_drops_globals_and_pwc;
    Alcotest.test_case "tlb: invpcid keeps pwc" `Quick test_tlb_invpcid_keeps_pwc;
    Alcotest.test_case "tlb: cr3 flush spares globals" `Quick test_tlb_cr3_flush_spares_globals;
    Alcotest.test_case "tlb: capacity eviction" `Quick test_tlb_capacity_eviction;
    Alcotest.test_case "tlb: fracture promotion" `Quick test_tlb_fracture_promotion;
    Alcotest.test_case "tlb: drop has no side effects" `Quick test_tlb_drop_no_side_effects;
    Alcotest.test_case "tlb: flush_all" `Quick test_tlb_flush_all;
    Alcotest.test_case "tlb: re-insert after invalidate is youngest" `Quick
      test_tlb_reinsert_after_invalidate_is_youngest;
    Alcotest.test_case "tlb: random ops vs FIFO model" `Quick
      test_tlb_random_vs_fifo_model;
    Alcotest.test_case "tlb: entries independent of history" `Quick
      test_tlb_entries_history_independent;
    Alcotest.test_case "cpu: compute accounting" `Quick test_cpu_compute_accounting;
    Alcotest.test_case "cpu+apic: delivery and interruption" `Quick test_ipi_delivery_and_interruption;
    Alcotest.test_case "cpu: masking defers irqs" `Quick test_irq_masking_defers;
    Alcotest.test_case "cpu: nmi bypasses mask" `Quick test_nmi_bypasses_mask;
    Alcotest.test_case "cpu: spin_until services irqs" `Quick test_spin_until_services_irqs;
    Alcotest.test_case "apic: multicast cluster cost" `Quick test_apic_multicast_cluster_cost;
    Alcotest.test_case "apic: rejects self-IPI" `Quick test_apic_rejects_self_ipi;
    Alcotest.test_case "cpu: idle_wait wakes on irq" `Quick test_idle_wait_wakes_on_irq;
    Alcotest.test_case "cpu: detached dispatch words" `Quick test_dispatch_words;
    Alcotest.test_case "cpu: scripted detached dispatch" `Quick test_dispatch_script;
  ]
