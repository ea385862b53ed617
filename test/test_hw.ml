(* Unit tests for the hardware model: Topology, Costs, Cache, Tlb, Cpu,
   Apic. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let dist_t =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Topology.distance_label d))
    (fun a b -> a = b)

let pp_topo ppf t =
  Format.fprintf ppf "%d socket(s) x %d cores x %d SMT" (Topology.sockets t)
    (Topology.cores_per_socket t) (Topology.smt t)

let occupancy t = List.length (Tlb.entries t)

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
  check (Alcotest.list int_t) "two clusters under cpus 0, 1, 13, 14" [ 0; 1 ]
    (List.sort_uniq compare (List.map (Topology.cluster_of t) [ 0; 1; 13; 14 ]))

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
  let l = Cache.create_line reg in
  check int_t "first read local" Costs.default.Costs.line_local (Cache.read l ~by:0);
  check int_t "second read local" Costs.default.Costs.line_local (Cache.read l ~by:0)

let test_cache_remote_read_costs_transfer () =
  let reg = make_cache () in
  let l = Cache.create_line reg in
  ignore (Cache.write l ~by:0);
  check int_t "cross-socket read" Costs.default.Costs.line_cross_socket (Cache.read l ~by:14);
  (* Now shared: reading again is local. *)
  check int_t "now cached" Costs.default.Costs.line_local (Cache.read l ~by:14)

let test_cache_write_invalidates_sharers () =
  let reg = make_cache () in
  let l = Cache.create_line reg in
  ignore (Cache.write l ~by:0);
  ignore (Cache.read l ~by:14);
  (* A plain store retires through the store buffer: local cost for the
     writer, but the cross-socket sharer is invalidated. *)
  check int_t "write is local for the writer" Costs.default.Costs.line_local
    (Cache.write l ~by:1);
  (* An atomic stalls for the line and pays the farthest holder. *)
  ignore (Cache.read l ~by:14);
  check int_t "atomic pays farthest"
    (Costs.default.Costs.line_cross_socket + Costs.default.Costs.atomic_op)
    (Cache.atomic l ~by:1);
  (* 14 lost the line either way. *)
  check int_t "14 re-reads remotely" Costs.default.Costs.line_cross_socket
    (Cache.read l ~by:14)

let test_cache_exclusive_write_is_local () =
  let reg = make_cache () in
  let l = Cache.create_line reg in
  ignore (Cache.write l ~by:5);
  check int_t "exclusive rewrite local" Costs.default.Costs.line_local (Cache.write l ~by:5)

let test_cache_atomic_cost () =
  let reg = make_cache () in
  let l = Cache.create_line reg in
  ignore (Cache.write l ~by:0);
  let expected = Costs.default.Costs.line_cross_socket + Costs.default.Costs.atomic_op in
  check int_t "atomic = write + lock" expected (Cache.atomic l ~by:14)

let test_cache_totals () =
  let reg = make_cache () in
  let l = Cache.create_line reg in
  ignore (Cache.write l ~by:0);
  ignore (Cache.read l ~by:14);
  ignore (Cache.read l ~by:1);
  let t = Cache.totals reg in
  check int_t "writes" 1 t.Cache.writes;
  check int_t "reads" 2 t.Cache.reads;
  check int_t "cross transfers" 1 t.Cache.cross_socket_transfers;
  check int_t "same-socket transfers" 1 t.Cache.same_socket_transfers

(* A line keeps its holders' sockets as the bits of one int, so the
   registry refuses a topology with more sockets than that has bits (the
   largest it takes is priced in the ranks test below). It builds only
   arrays. *)
let test_cache_socket_cap () =
  let topo = Topology.create ~sockets:Sys.int_size ~cores_per_socket:1 ~smt:1 in
  match Cache.create_registry topo Costs.default with
  | _ -> Alcotest.failf "%a accepted" pp_topo topo
  | exception Invalid_argument _ -> ()

let flat4 = Topology.flat 4
let topo_3x5 = Topology.create ~sockets:3 ~cores_per_socket:5 ~smt:1
let topo_8x64x2 = Topology.create ~sockets:8 ~cores_per_socket:64 ~smt:2
let topo_2x2x4 = Topology.create ~sockets:2 ~cores_per_socket:2 ~smt:4
let topo_3x4x2 = Topology.create ~sockets:3 ~cores_per_socket:4 ~smt:2
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
      let l = Cache.create_line reg in
      let n = Topology.n_cpus topo in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          ignore (Cache.write l ~by:a);
          let expected = Costs.line_transfer c (Topology.distance topo a b) in
          if Cache.read l ~by:b <> expected then
            Alcotest.failf "%a: read of cpu %d's line by cpu %d" pp_topo topo a b
        done
      done)
    (pricing_topologies
    @ [
        Topology.flat 5;
        topo_3x4x2;
        topo_2x2x4;
        Topology.create ~sockets:1 ~cores_per_socket:1 ~smt:2;
        Topology.create ~sockets:(Sys.int_size - 1) ~cores_per_socket:1 ~smt:1;
      ])

(* Black-box differential test of coherence pricing: random reads, writes
   and atomics over several lines, against a naive model
   that keeps an owner and a holder list per line and ranks holders with
   [Topology.distance]. Every returned cost and the final totals must
   agree. Half the accesses come from a few hot CPUs per line, so local
   hits, exclusive rewrites and SMT-sibling fetches all occur. The
   2x2x4 and 3x4x2 shapes give a core more than one sibling and a socket
   count that is not a power of two. On the 1024-CPU topology a prefix of
   reads grows line 0's sharer set through Cpuset doubling to 1, 18 and
   then 36 words, past the 32 words that 1024 CPUs need; then the
   sync-broadcast status-line pattern runs twice, once in ascending CPU
   order and once shuffled: every CPU reads line 1, then every CPU does
   an atomic on it. *)
let test_cache_vs_naive_model () =
  let c = Costs.default in
  List.iter
    (fun topo ->
      let n = Topology.n_cpus topo in
      let reg = Cache.create_registry topo c in
      let n_lines = 4 in
      let lines = Array.init n_lines (fun _ -> Cache.create_line reg) in
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
          Alcotest.failf "%a: %s of line %d by cpu %d cost %d, model %d" pp_topo topo
            what i by got want
      in
      let read i ~by =
        step "read" i ~by ~got:(Cache.read lines.(i) ~by) ~want:(model_read i ~by)
      in
      let atomic i ~by =
        step "atomic" i ~by ~got:(Cache.atomic lines.(i) ~by)
          ~want:(model_write i ~by ~stall:true + c.Costs.atomic_op)
      in
      let r = Rng.create ~seed:(Int64.of_int (0xCAC4E + n)) in
      if n = 1024 then begin
        List.iter (fun by -> read 0 ~by) [ 0; 544; 1023; 3 ];
        let order = Array.init n Fun.id in
        let broadcast () =
          Array.iter (fun by -> read 1 ~by) order;
          Array.iter (fun by -> atomic 1 ~by) order
        in
        broadcast ();
        for k = n - 1 downto 1 do
          let j = Rng.int r (k + 1) in
          let t = order.(k) in
          order.(k) <- order.(j);
          order.(j) <- t
        done;
        broadcast ()
      end;
      let hot = Array.init n_lines (fun i -> [| i; (i + 1) mod n; (i + n / 2) mod n |]) in
      for _ = 1 to 3000 do
        let i = Rng.int r n_lines in
        let by = if Rng.int r 2 = 0 then hot.(i).(Rng.int r 3) else Rng.int r n in
        match Rng.int r 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 -> read i ~by
        | 6 | 7 | 8 ->
            step "write" i ~by ~got:(Cache.write lines.(i) ~by)
              ~want:(model_write i ~by ~stall:false)
        | _ -> atomic i ~by
      done;
      let t = Cache.totals reg in
      let total what got want =
        if got <> want then
          Alcotest.failf "%a: total %s %d, model %d" pp_topo topo what got want
      in
      total "reads" t.Cache.reads !reads;
      total "writes" t.Cache.writes !writes;
      total "local hits" t.Cache.local_hits by_rank.(0);
      total "smt transfers" t.Cache.smt_transfers by_rank.(1);
      total "same-socket transfers" t.Cache.same_socket_transfers by_rank.(2);
      total "cross-socket transfers" t.Cache.cross_socket_transfers by_rank.(3);
      total "cycles" t.Cache.cycles !cycles)
    (pricing_topologies @ [ topo_2x2x4; topo_3x4x2 ])

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
  check bool_t "bounded" true (occupancy t <= 4);
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
  check int_t "empty" 0 (occupancy t);
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
  check int_t "full again" 4 (occupancy t);
  (* Inserting a fifth key must evict vpn 2 (the oldest live entry), not
     the just-re-inserted vpn 1. *)
  Tlb.insert t (entry ~vpn:5 ~pfn:5 ());
  check bool_t "re-inserted key survives" true (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "oldest live key evicted" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "vpn3 stays" true (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "vpn4 stays" true (Tlb.mem t ~pcid:1 ~vpn:4);
  check bool_t "new key present" true (Tlb.mem t ~pcid:1 ~vpn:5);
  check int_t "exactly one eviction" 1 (Tlb.stats t).Tlb.evictions;
  check int_t "occupancy exact" 4 (occupancy t)

(* The checker stamps the record a hit returns, and a fill rewrites its
   slot's record in place: the fill must clear the stamp, both when it
   re-fills the resident key and when it takes a freed slot. *)
let test_tlb_fill_resets_checker_stamp () =
  let t = Tlb.create ~capacity:2 () in
  Tlb.insert t (entry ~vpn:1 ~pfn:1 ());
  (Tlb.probe t ~pcid:1 ~vpn:1).Tlb.ck_ver <- 7;
  Tlb.insert t (entry ~vpn:1 ~pfn:2 ());
  let e = Tlb.probe t ~pcid:1 ~vpn:1 in
  check int_t "re-filled pfn" 2 e.Tlb.pfn;
  check int_t "re-fill of a resident key" (-1) e.Tlb.ck_ver;
  e.Tlb.ck_ver <- 7;
  Tlb.drop t ~pcid:1 ~vpn:1;
  Tlb.insert t (entry ~vpn:3 ~pfn:3 ());
  check int_t "fill into a freed slot" (-1) (Tlb.probe t ~pcid:1 ~vpn:3).Tlb.ck_ver;
  check bool_t "a miss is the sentinel" true (Tlb.probe t ~pcid:1 ~vpn:1 == Tlb.no_entry)

(* A TLB grown to its capacity fills, hits, misses and flushes without
   allocating: each slot's record is rewritten in place, and the index,
   the free cells and the FIFO ring are int arrays. *)
let test_tlb_warm_words () =
  let t = Tlb.create () in
  let fill ?(global = false) vpn =
    Tlb.fill t ~vpn ~pfn:vpn ~pcid:1 ~size:Tlb.Four_k ~global ~writable:true
      ~fractured:false
  in
  for vpn = 0 to Tlb.capacity t - 1 do
    fill vpn
  done;
  fill ~global:true 100_000;
  (* Each op runs once before it is counted: the first global fill after
     the table's one global takes a second cell and its first record. *)
  let words what f =
    f 0;
    let before = Gc.minor_words () in
    for i = 1 to 100 do
      f i
    done;
    check int_t (what ^ ": minor words") 0 (int_of_float (Gc.minor_words () -. before))
  in
  words "fill, evicting" (fun i -> fill (5000 + i));
  words "re-fill a resident key" (fun i -> fill (5000 + i));
  words "probe hit" (fun i -> ignore (Tlb.probe t ~pcid:1 ~vpn:(5000 + i) : Tlb.entry));
  words "probe miss" (fun i -> ignore (Tlb.probe t ~pcid:2 ~vpn:i : Tlb.entry));
  words "invlpg" (fun i -> Tlb.invlpg t ~current_pcid:1 ~vpn:(5000 + i));
  words "fill + flush_pcid" (fun i ->
      fill i;
      Tlb.flush_pcid t ~pcid:1);
  words "fill + flush_all" (fun i ->
      fill i;
      fill ~global:true (100_000 + i);
      Tlb.flush_all t);
  check int_t "one live entry" 0 (occupancy t)

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
    if occupancy t <> List.length !model then
      Alcotest.failf "step %d: occupancy %d, model %d" step (occupancy t)
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
  check int_t "same occupancy" (occupancy a) (occupancy b);
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
        Helpers.send_ipi apic ~from:0 ~targets:[ 14 ]
          (Helpers.irq 1 (fun _ -> handled := true) ~cycles:500)
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
      Cpu.quiesce_and_mask target;
      Cpu.compute target 5_000;
      (* IRQ arrives during this window but must wait. *)
      Cpu.irq_enable target);
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 100;
      ignore
        (Helpers.send_ipi apic ~from:0 ~targets:[ 1 ]
           (Helpers.irq 2 (fun _ -> handled_at := Engine.now e))));
  Engine.run e;
  check bool_t "deferred past mask window" true (!handled_at >= 5_000)

let test_nmi_bypasses_mask () =
  let e, _, _, cpus, _ = make_machine_parts () in
  let handled = ref false in
  let target = cpus.(2) in
  Process.spawn e ~name:"receiver" (fun () ->
      Cpu.quiesce_and_mask target;
      Cpu.post_irq target
        (Helpers.irq ~maskable:false 2 (fun _ -> handled := true));
      Cpu.compute target 1_000;
      check bool_t "NMI ran while masked" true !handled;
      Cpu.irq_enable target);
  Engine.run e

let test_poll_wait_services_irqs () =
  let e, _, _, cpus, apic = make_machine_parts () in
  let flag = ref false and released = ref false in
  Process.spawn e ~name:"spinner" (fun () ->
      let ready () = !flag in
      while not (ready ()) do
        Cpu.poll_wait cpus.(3) ready
      done;
      released := true);
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 1_000;
      ignore
        (Helpers.send_ipi apic ~from:0 ~targets:[ 3 ]
           (Helpers.irq 3 (fun _ -> flag := true))));
  Engine.run e;
  check bool_t "irq handled" true !flag;
  check bool_t "spinner released by irq" true !released

let test_apic_multicast_cluster_cost () =
  let e, topo, c, _, apic = make_machine_parts () in
  (* Targets in different clusters need several ICR writes. *)
  let targets = [ 1; 13; 14; 27 ] in
  let clusters =
    List.length (List.sort_uniq compare (List.map (Topology.cluster_of topo) targets))
  in
  Process.spawn e ~name:"sender" (fun () ->
      let cost =
        Helpers.send_ipi apic ~from:0 ~targets
          (Helpers.irq 9 ignore)
      in
      check int_t "one ICR write per cluster" (clusters * c.Costs.icr_write) cost);
  Engine.run e;
  check int_t "icr writes counted" clusters (Apic.icr_writes apic);
  check int_t "ipis counted" (List.length targets) (Apic.ipis_sent apic)

(* Delivery order is cluster-major: clusters in ascending id, each
   cluster's targets in ascending cpu id. On the paper machine, cpu 28 is
   cpu 0's SMT sibling and shares x2APIC cluster 0 with cpu 1, while cpus 8
   and 36 (one core's two threads) make up part of cluster 1, so this
   order differs from ascending cpu id. With every IPI latency equal, a
   cluster's targets are delivered in one tick, and the handlers run in
   delivery order. *)
let test_apic_delivery_order_cluster_major () =
  let e = Engine.create () in
  let topo = Topology.paper_machine in
  let c = { Costs.default with Costs.ipi_smt = Costs.default.Costs.ipi_same_socket } in
  let cpus =
    Array.init (Topology.n_cpus topo) (fun id -> Cpu.create e topo c ~id ~safe:false ())
  in
  let apic = Apic.create e topo c ~cpus in
  let log = ref [] in
  let irq = Helpers.irq 1 (fun cpu -> log := (Cpu.id cpu, Engine.now e) :: !log) in
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e (Helpers.send_ipi apic ~from:0 ~targets:[ 36; 8; 28; 1 ] irq));
  Engine.run e;
  let log = List.rev !log in
  check (Alcotest.list int_t) "cluster 0 (1, 28), then cluster 1 (8, 36)" [ 1; 28; 8; 36 ]
    (List.map fst log);
  match List.map snd log with
  | [ a; b; c'; d ] ->
      check bool_t "one tick per cluster" true (a = b && c' = d);
      check int_t "the second cluster waits one more ICR write" c.Costs.icr_write (c' - a)
  | _ -> Alcotest.fail "expected four deliveries"

let test_apic_rejects_self_ipi () =
  let e, _, _, _, apic = make_machine_parts () in
  Process.spawn e ~name:"sender" (fun () ->
      Alcotest.check_raises "self ipi"
        (Invalid_argument "Apic.send_ipi_id: self-IPI not supported") (fun () ->
          ignore
            (Helpers.send_ipi apic ~from:0 ~targets:[ 0 ]
               (Helpers.irq 1 ignore))));
  Engine.run e

(* --- Detached IRQ dispatch --- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

let lone_cpu () =
  let e = Engine.create () in
  (e, Cpu.create e (Topology.flat 2) Costs.default ~id:1 ~safe:false ())

(* Exact minor words per detached dispatch of an IRQ to an idle CPU, from
   two runs that differ only in the number of dispatches, so the first
   dispatch (which registers the CPU's dispatch handler) cancels out. An
   engine event every cycle keeps the entry, handler and exit costs off
   the [try_advance] fast path. Nothing is left per IRQ: it waits in the
   CPU's pending ring, which the first dispatch grew, the entry boundary,
   the handler's one boundary and the exit boundary are events on the
   CPU's dispatch handler, and the handler is a step function, so no
   process runs at all. A pooled handler process
   cost 5 words more, and a process spawned per dispatch 64. *)
let test_dispatch_words () =
  let period = 2048 in
  let words n =
    let e, cpu = lone_cpu () in
    (* 100 cycles of handler, then done. *)
    let step _ k = if k = 0 then 100 else -1 in
    let irq = { Cpu.vector = 1; maskable = true; step } in
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
  check int_t "0 words per detached dispatch" 0 (words n2 - words n1)

(* The pending ring at a service point of an occupant in user mode, so no
   drain starts on its own: FIFO order across a growth from a wrapped
   head, the NMIs of a masked drain run in order with the masked IRQs
   deferred behind them, and those run in order once unmasked. *)
let test_irq_ring () =
  let e, cpu = lone_cpu () in
  let log = ref [] in
  let irq vector maskable =
    let step _ _ =
      log := vector :: !log;
      -1
    in
    { Cpu.vector; maskable; step }
  in
  let ran () =
    let l = List.rev !log in
    log := [];
    l
  in
  let ints = Alcotest.(list int) in
  Process.spawn e ~name:"occupant" (fun () ->
      Cpu.occupy cpu;
      for v = 0 to 4 do
        Cpu.post_irq cpu (irq v true)
      done;
      Cpu.service_pending cpu;
      check ints "FIFO" [ 0; 1; 2; 3; 4 ] (ran ());
      Cpu.quiesce_and_mask cpu;
      for v = 10 to 29 do
        Cpu.post_irq cpu (irq v (v mod 3 <> 0))
      done;
      check int_t "all 20 pending across the growth" 20 (Cpu.pending_irqs cpu);
      Cpu.service_pending cpu;
      check ints "masked: the NMIs, in order" [ 12; 15; 18; 21; 24; 27 ] (ran ());
      check int_t "the masked IRQs deferred" 14 (Cpu.pending_irqs cpu);
      Cpu.irq_enable cpu;
      check ints "unmasked: the deferred IRQs, in order"
        [ 10; 11; 13; 14; 16; 17; 19; 20; 22; 23; 25; 26; 28; 29 ]
        (ran ());
      check int_t "nothing pending" 0 (Cpu.pending_irqs cpu);
      Cpu.vacate cpu);
  Engine.run e;
  check int_t "every irq handled" 25 (Cpu.irqs_handled cpu)

(* A scripted idle CPU: IRQs posted while a drain is mid-handler,
   while the CPU is masked, twice in one instant, and inside an exit
   window that another event makes contended, then a handler that raises.
   The (time, vector) log pins when each IRQ ran and that each ran exactly
   once. *)
let test_dispatch_script () =
  let e, cpu = lone_cpu () in
  let log = ref [] in
  let irq ?maskable ?cycles vector =
    Helpers.irq ?maskable ?cycles vector (fun _ -> log := (Engine.now e, vector) :: !log)
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
      Cpu.quiesce_and_mask cpu;
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
  Cpu.post_irq cpu (Helpers.irq 8 (fun _ -> failwith "boom"));
  Alcotest.check_raises "a failing handler step escapes the engine" (Failure "boom")
    (fun () -> Engine.run e);
  check bool_t "the failed drain was ended" false (Cpu.draining cpu);
  (* The next IRQ is still dispatched. *)
  Cpu.post_irq cpu (irq 9);
  Engine.run e;
  check int_t "dispatch works after a failure" 9 (snd (List.hd !log))

(* --- Fused idle spin --- *)

(* [compute_until] against the loop it replaces,
   [while not (until ()) do compute ... done], on random scripts. A
   spinner runs stretches until a flipper sets its flag (at random
   instants, some exactly at chunk ends) and, between stretches, idles a
   random gap with the CPU unoccupied, so an IRQ posted then starts a
   detached drain that can still be running when the next stretch begins.
   IRQs are posted at random instants, at chunk ends and at quantum
   boundaries, with handlers of 0 to 1500 cycles; quanta need not divide
   the chunk. Each script runs in (time, seq) order and under a seeded
   chooser. The (time, actor, action) log, [events_run], [advances] and
   the CPU's cycle counters must be identical, and the fused spin must
   never suspend more. *)
let spin_script rng =
  let quantum = [| 1; 7; 30; 50; 64; 100; 200 |].(Rng.int rng 7) in
  let chunk = [| 1; 13; 100; 150; 333 |].(Rng.int rng 5) in
  let start = Rng.int rng 400 in
  let instant () =
    match Rng.int rng 4 with
    | 0 -> start + (chunk * Rng.int rng 12)
    | 1 -> start + (quantum * Rng.int rng 12)
    | 2 -> start + (chunk * Rng.int rng 12) + Rng.int rng 3 - 1
    | _ -> Rng.int rng 3000
  in
  let flips = List.init (1 + Rng.int rng 3) (fun _ -> instant ()) in
  let flips = List.sort Int.compare flips in
  let gap _ = if Rng.int rng 2 = 0 then 0 else Rng.int rng 300 in
  let gaps = List.init (List.length flips) gap in
  let irqs =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (List.init (Rng.int rng 7) (fun v ->
           (Int.max 0 (instant ()), [| 0; 20; 500; 1500 |].(Rng.int rng 4), v)))
  in
  (quantum, chunk, start, flips, gaps, irqs)

let run_spin_script ~fused ?chooser (quantum, chunk, start, flips, gaps, irqs) =
  let e, cpu = lone_cpu () in
  Option.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      Engine.set_chooser e ~horizon:8 (fun n -> Rng.int rng n))
    chooser;
  let log = ref [] in
  let note who what = log := (Engine.now e, who, what) :: !log in
  let flag = ref false and finished = ref false in
  let until () = !flag in
  Process.spawn e ~name:"spinner" (fun () ->
      Process.delay e start;
      let gaps = ref gaps in
      while not !finished do
        if fused then Cpu.compute_until cpu ~quantum ~chunk until
        else
          while not (until ()) do
            Cpu.compute cpu ~quantum chunk
          done;
        note "spinner" "stretch over";
        flag := false;
        match !gaps with
        | g :: rest ->
            gaps := rest;
            Process.delay e g
        | [] -> ()
      done);
  Process.spawn e ~name:"flipper" (fun () ->
      List.iteri
        (fun i at ->
          Process.delay e (Int.max 0 (at - Engine.now e));
          flag := true;
          if i = List.length flips - 1 then finished := true;
          note "flipper" "flip")
        flips);
  Process.spawn e ~name:"poster" (fun () ->
      List.iter
        (fun (at, cycles, v) ->
          Process.delay e (Int.max 0 (at - Engine.now e));
          Cpu.post_irq cpu
            (Helpers.irq v ~cycles
               (fun _ -> note "irq" (Printf.sprintf "begin %d" v))
               ~at_end:(fun _ -> note "irq" (Printf.sprintf "end %d" v))))
        irqs);
  let s0 = Engine.suspensions () in
  Engine.run e;
  ( ( List.rev !log,
      (Engine.events_run e, Engine.advances e),
      (Cpu.compute_cycles cpu, Cpu.interrupted_cycles cpu, Cpu.irqs_handled cpu) ),
    Engine.suspensions () - s0 )

let test_compute_until_model () =
  let result_t =
    Alcotest.(
      triple (list (triple int string string)) (pair int int) (triple int int int))
  in
  let saved = ref 0 in
  for seed = 1 to 150 do
    let rng = Rng.create ~seed:(Int64.of_int (0x5917 + seed)) in
    let script = spin_script rng in
    List.iter
      (fun chooser ->
        let looped, s_looped = run_spin_script ~fused:false ?chooser script in
        let fused, s_fused = run_spin_script ~fused:true ?chooser script in
        check result_t (Printf.sprintf "seed %d" seed) looped fused;
        check bool_t "the fused spin never suspends more" true (s_fused <= s_looped);
        saved := !saved + (s_looped - s_fused))
      [ None; Some (Int64.of_int seed) ]
  done;
  check bool_t "the fused spin saved suspensions" true (!saved > 0)

(* A 10,000-cycle idle stretch of 100-cycle chunks in 50-cycle quanta,
   with an engine event every 30 cycles, so no quantum takes the
   [try_advance] fast path. The loop suspends once per chunk; the fused
   spin suspends once, resumed at the chunk end where its flag holds. *)
let test_compute_until_suspends_once () =
  let run fused =
    let e, cpu = lone_cpu () in
    let tag = ref (-1) in
    tag :=
      Engine.register_handler e (fun _ _ ->
          if Engine.now e < 12_000 then
            Engine.schedule_tag e ~delay:30 ~tag:!tag ~a:0 ~b:0);
    Engine.schedule_tag e ~delay:0 ~tag:!tag ~a:0 ~b:0;
    let flag = ref false and over = ref 0 in
    Helpers.schedule e ~delay:10_000 (fun () -> flag := true);
    Process.spawn e ~name:"spinner" (fun () ->
        if fused then Cpu.compute_until cpu ~quantum:50 ~chunk:100 (fun () -> !flag)
        else
          while not !flag do
            Cpu.compute cpu ~quantum:50 100
          done;
        over := Engine.now e);
    let s0 = Engine.suspensions () in
    Engine.run e;
    check int_t "over at the flip" 10_000 !over;
    check int_t "every cycle computed" 10_000 (Cpu.compute_cycles cpu);
    Engine.suspensions () - s0
  in
  check int_t "the loop suspends once per chunk" 100 (run false);
  check int_t "the fused spin suspends once" 1 (run true)

(* Exact minor words per [compute ~quantum:50 100] call, from two runs
   that differ only in the call count: none, since the idle spin's state
   lives in the engine and its predicates are built once per CPU. With an
   engine event every 30 cycles the call's one suspension costs the
   continuation and its slot (4). *)
let test_compute_words () =
  let words ~contended n =
    let e, cpu = lone_cpu () in
    if contended then begin
      let tag = ref (-1) in
      tag :=
        Engine.register_handler e (fun _ _ ->
            if Engine.now e < n * 100 then
              Engine.schedule_tag e ~delay:30 ~tag:!tag ~a:0 ~b:0);
      Engine.schedule_tag e ~delay:0 ~tag:!tag ~a:0 ~b:0
    end;
    Process.spawn e ~name:"compute" (fun () ->
        for _ = 1 to n do
          Cpu.compute cpu ~quantum:50 100
        done);
    minor_words (fun () -> Engine.run e)
  in
  let n1 = 100 and n2 = 1100 in
  check int_t "0 words per call" 0
    (words ~contended:false n2 - words ~contended:false n1);
  check int_t "4 words per contended call" (4 * (n2 - n1))
    (words ~contended:true n2 - words ~contended:true n1)

(* --- Idle spins against their reference model ---

   Every idle spin ([Cpu.compute], [compute_until], [poll_wait],
   [poll_until], a bare [Process.spin]) against a model that waits out the
   same schedule with a [Process.delay] per slice and tests the same
   conditions in the process, as the code did before spins ran inside the
   engine. Random scripts on two CPUs: each CPU's spinner runs a list of
   spins and gaps; a flipper sets each spin's flag at a random instant
   (some at slice boundaries); IRQs of 0 to 1500 cycles are posted at
   random; two delayers sleep random windows, which the idle spin's
   [try_advance] steps through when only non-waking boundaries lie in
   them. Both runs must give the same (time, actor, action) log, the same
   [events_run] and [advances], and the same compute, IRQ and interrupted
   cycle totals, with and without a chooser. *)

type spin_op =
  | Compute of int * int  (** quantum, cycles *)
  | Until of int * int * int  (** quantum, chunk, flag *)
  | Poll of int  (** flag *)
  | Poll_until of int * int  (** deadline offset, flag *)
  | Raw of int * int * int * int * int  (** quantum, chunk, left, wq flag, wc flag *)
  | Gap of int

let model_serviceable cpu () = Cpu.pending_irqs cpu > 0 && not (Cpu.draining cpu)
let model_service cpu = if Cpu.pending_irqs cpu > 0 then Cpu.service_pending cpu

let rec model_spin e ~quantum ~chunk ~left wq wc =
  let d = Int.min quantum left in
  let left = left - d in
  Process.delay e d;
  if wq () then left
  else if left > 0 then model_spin e ~quantum ~chunk ~left wq wc
  else if wc () then -1
  else model_spin e ~quantum ~chunk ~left:chunk wq wc

(* [compute cycles]: a service check, then a delay per quantum, servicing
   whatever IRQ is serviceable at each boundary. *)
let model_compute e cpu computed ~quantum cycles =
  if cycles > 0 then model_service cpu;
  let left = ref cycles in
  while !left > 0 do
    let d = Int.min quantum !left in
    left := !left - d;
    Process.delay e d;
    computed := !computed + d;
    if model_serviceable cpu () then model_service cpu
  done

(* A poll per [spin_poll] until [ready], an IRQ or the deadline. *)
let model_poll e cpu ?(deadline = max_int) ready =
  model_service cpu;
  let over = ref false in
  while not !over do
    Process.delay e Costs.default.Costs.spin_poll;
    over := ready () || Engine.now e >= deadline || model_serviceable cpu ()
  done

let run_spin_model_script ~model ?chooser ?renumber_after (ops, flips, irqs, delays) =
  let e = Engine.create () in
  let n_cpus = Array.length ops in
  let topo = Topology.flat n_cpus in
  let cpus =
    Array.init n_cpus (fun id -> Cpu.create e topo Costs.default ~id ~safe:false ())
  in
  (* Take all but [n] of the 2^25 - 1 sequence numbers on no-op events, so
     the engine renumbers its pending keys [n] schedules into the script. *)
  Option.iter
    (fun n ->
      let noop = Engine.register_handler e (fun _ _ -> ()) in
      let left = ref ((1 lsl 25) - 1 - n) in
      while !left > 0 do
        for _ = 1 to Int.min 4096 !left do
          Engine.schedule_tag e ~delay:0 ~tag:noop ~a:0 ~b:0
        done;
        left := !left - 4096;
        Engine.run e
      done)
    renumber_after;
  let events0 = Engine.events_run e and advances0 = Engine.advances e in
  Option.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      Engine.set_chooser e ~horizon:8 (fun n -> Rng.int rng n))
    chooser;
  let log = ref [] in
  let note who what = log := (Engine.now e, who, what) :: !log in
  let flags = Array.make 64 false in
  let flag k () = flags.(k) in
  let computed = Array.init n_cpus (fun _ -> ref 0) in
  Array.iteri
    (fun c ops ->
      let cpu = cpus.(c) in
      let who = Printf.sprintf "spinner%d" c in
      Process.spawn e ~name:who (fun () ->
          Cpu.occupy cpu;
          List.iter
            (fun op ->
              (match op with
              | Compute (quantum, cycles) ->
                  if model then model_compute e cpu computed.(c) ~quantum cycles
                  else Cpu.compute cpu ~quantum cycles
              | Until (quantum, chunk, k) ->
                  if model then
                    while not (flag k ()) do
                      model_compute e cpu computed.(c) ~quantum chunk
                    done
                  else Cpu.compute_until cpu ~quantum ~chunk (flag k)
              | Poll k ->
                  if model then model_poll e cpu (flag k) else Cpu.poll_wait cpu (flag k)
              | Poll_until (offset, k) ->
                  let deadline = Engine.now e + offset in
                  if model then model_poll e cpu ~deadline (flag k)
                  else Cpu.poll_until cpu ~deadline (flag k)
              | Raw (quantum, chunk, left, a, b) ->
                  let r =
                    (if model then model_spin e else Process.spin e)
                      ~quantum ~chunk ~left (flag a) (flag b)
                  in
                  note who (Printf.sprintf "raw woke %d" r)
              | Gap d -> Process.delay e d);
              note who "op over")
            ops;
          Cpu.vacate cpu))
    ops;
  Process.spawn e ~name:"flipper" (fun () ->
      List.iter
        (fun (at, k) ->
          Process.delay e (Int.max 0 (at - Engine.now e));
          flags.(k) <- true;
          note "flipper" (Printf.sprintf "flag %d" k))
        flips);
  Process.spawn e ~name:"poster" (fun () ->
      List.iter
        (fun (at, c, cycles, v) ->
          Process.delay e (Int.max 0 (at - Engine.now e));
          Cpu.post_irq cpus.(c)
            (Helpers.irq v ~cycles
               (fun _ -> note "irq" (Printf.sprintf "begin %d on %d" v c))
               ~at_end:(fun _ -> note "irq" (Printf.sprintf "end %d" v))))
        irqs);
  List.iteri
    (fun i ds ->
      let who = Printf.sprintf "delayer%d" i in
      Process.spawn e ~name:who (fun () ->
          List.iter
            (fun d ->
              Process.delay e d;
              note who "woke")
            ds))
    delays;
  Engine.run e;
  let cycles cpu = (Cpu.interrupted_cycles cpu, Cpu.irqs_handled cpu) in
  ( List.rev !log,
    (Engine.events_run e - events0, Engine.advances e - advances0),
    ( Array.to_list
        (Array.mapi
           (fun c cpu ->
             (if model then !(computed.(c)) else Cpu.compute_cycles cpu), cycles cpu)
           cpus) ) )

let spin_model_script rng =
  let flag = ref 0 in
  let fresh () =
    incr flag;
    !flag
  in
  let quantum () = [| 1; 7; 30; 40; 50; 64; 100; 200 |].(Rng.int rng 8) in
  let op () =
    match Rng.int rng 6 with
    | 0 -> Compute (quantum (), 1 + Rng.int rng 400)
    | 1 -> Until (quantum (), [| 13; 40; 100; 150 |].(Rng.int rng 4), fresh ())
    | 2 -> Poll (fresh ())
    | 3 -> Poll_until (Rng.int rng 700 - 50, fresh ())
    | 4 ->
        let chunk = [| 40; 100; 333 |].(Rng.int rng 3) in
        Raw (quantum (), chunk, 1 + Rng.int rng chunk, fresh (), fresh ())
    | _ -> Gap (Rng.int rng 300)
  in
  let ops = Array.init 2 (fun _ -> List.init (1 + Rng.int rng 5) (fun _ -> op ())) in
  let instant () =
    match Rng.int rng 3 with
    | 0 -> 40 * Rng.int rng 60
    | 1 -> 50 * Rng.int rng 50
    | _ -> Rng.int rng 2500
  in
  let flips =
    List.sort compare (List.init !flag (fun k -> (instant (), k + 1)))
  in
  let irqs =
    List.sort compare
      (List.init (Rng.int rng 6) (fun v ->
           (instant (), Rng.int rng 2, [| 0; 20; 500; 1500 |].(Rng.int rng 4), v)))
  in
  let delays =
    List.init 2 (fun _ -> List.init (Rng.int rng 6) (fun _ -> 1 + Rng.int rng 300))
  in
  (ops, flips, irqs, delays)

let spin_result_t =
  Alcotest.(
    triple
      (list (triple int string string))
      (pair int int)
      (list (pair int (pair int int))))

(* Three or four bare spins side by side, each CPU's spinner one [Raw]
   after a gap that sets its phase, while two delayers sleep windows of up
   to 2,000 cycles through them: the windows [try_advance] steps through
   in closed form ([Engine] counts a window's boundaries and runs rather
   than stepping them) and in the stepping loop it falls back to. Quanta
   are 40, 50, 100 and 200. A spin is fixed-step when its quantum divides
   its chunk and its first [left]; a third of them are not. Phases are 0
   or multiples of 50 two times in three, so boundaries tie. Flags flip
   late, so the spins stay idle across many windows, and several at one
   instant, so that tied spins wake at one boundary, in key order. *)
let walk_model_script rng =
  let flag = ref 0 in
  let fresh () =
    incr flag;
    !flag
  in
  let spinner () =
    let quantum = [| 40; 50; 100; 200 |].(Rng.int rng 4) in
    let chunk, left =
      match Rng.int rng 3 with
      | 0 -> (quantum * 333, 1 + Rng.int rng (quantum * 3))
      | _ ->
          let chunk = quantum * [| 1; 2; 5; 20 |].(Rng.int rng 4) in
          (chunk, quantum * (1 + Rng.int rng (chunk / quantum)))
    in
    let phase =
      match Rng.int rng 3 with 0 -> 0 | 1 -> 50 * Rng.int rng 4 | _ -> Rng.int rng 200
    in
    [ Gap phase; Raw (quantum, chunk, left, fresh (), fresh ()) ]
  in
  let ops = Array.init (3 + Rng.int rng 2) (fun _ -> spinner ()) in
  let flips =
    List.sort compare (List.init !flag (fun k -> (2000 + (250 * Rng.int rng 32), k + 1)))
  in
  let delays =
    List.init 2 (fun _ -> List.init (2 + Rng.int rng 6) (fun _ -> 1 + Rng.int rng 2000))
  in
  (ops, flips, [], delays)

let test_walk_model () =
  for seed = 1 to 150 do
    let rng = Rng.create ~seed:(Int64.of_int (0x3a1c + seed)) in
    let script = walk_model_script rng in
    List.iter
      (fun (what, chooser, renumber_after) ->
        check spin_result_t
          (Printf.sprintf "walk seed %d%s" seed what)
          (run_spin_model_script ~model:true ?chooser script)
          (run_spin_model_script ~model:false ?chooser ?renumber_after script))
      ([ ("", None, None); (", chooser", Some (Int64.of_int seed), None) ]
      @ if seed mod 75 = 0 then [ (", renumbered", None, Some (seed / 5)) ] else [])
  done;
  (* Two 50-cycle spins in phase, one a quantum behind the other when the
     delayer's 175-cycle window starts at 100: spinner1 started its spin
     at 50, after the delayer suspended there, so its boundary at 100 is
     keyed after the delayer's wake, while spinner0 took its own before
     it and is keyed at 150. Both next keys fall at 300, where flags
     flipped at 290 wake both, spinner0 (the later start) first. *)
  let script =
    ( [| [ Raw (50, 50, 50, 1, 2) ]; [ Gap 25; Gap 25; Raw (50, 50, 50, 3, 4) ] |],
      [ (290, 1); (290, 3) ],
      [],
      [ [ 50; 50; 175 ] ] )
  in
  check spin_result_t "walk: equal quanta tied at the window's end"
    (run_spin_model_script ~model:true script)
    (run_spin_model_script ~model:false script)

let test_spin_model () =
  let result_t = spin_result_t in
  for seed = 1 to 200 do
    let rng = Rng.create ~seed:(Int64.of_int (0x5319 + seed)) in
    let script = spin_model_script rng in
    List.iter
      (fun chooser ->
        check result_t
          (Printf.sprintf "seed %d%s" seed (if chooser = None then "" else ", chooser"))
          (run_spin_model_script ~model:true ?chooser script)
          (run_spin_model_script ~model:false ?chooser script))
      [ None; Some (Int64.of_int seed) ]
  done;
  test_walk_model ()

(* The same across a sequence-number renumbering, which rewrites the keys
   of pending spins, and of a [try_advance]'s barrier while it steps
   through them, in place: two scripts renumbered with two spins pending,
   the first while a delayer steps through them. *)
let test_spin_model_renumber () =
  List.iter
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(Int64.of_int (0x5319 + seed)) in
      let script = spin_model_script rng in
      check spin_result_t
        (Printf.sprintf "seed %d renumbered after %d" seed n)
        (run_spin_model_script ~model:true script)
        (run_spin_model_script ~model:false ~renumber_after:n script))
    [ (3, 20); (7, 45) ]

(* A delayer's window that holds a waking spin boundary is not stepped
   through: the delayer suspends and the spin wakes inside its window, as
   in the model. CPU 0's spinner polls with a deadline 100 cycles out
   (polls at 40 and 80, the deadline chunk end at 120) and then without
   one until a flag that is set at 30, before its poll at 160. Delayer
   windows: (50, 100] holds the idle poll at 80 only, (100, 150] the
   deadline chunk end, (150, 200] the poll at 160, which the flag wakes. *)
let test_spin_window_wakes () =
  let script =
    ( [| [ Poll_until (100, 1); Poll 2 ]; [] |],
      [ (30, 2); (5000, 1) ],
      [],
      [ [ 50; 50; 50; 50 ] ] )
  in
  let spun = run_spin_model_script ~model:false script in
  let log, _, _ = spun in
  check
    Alcotest.(list (triple int string string))
    "wakes and windows"
    [
      (30, "flipper", "flag 2");
      (50, "delayer0", "woke");
      (100, "delayer0", "woke");
      (120, "spinner0", "op over");
      (150, "delayer0", "woke");
      (160, "spinner0", "op over");
      (200, "delayer0", "woke");
      (5000, "flipper", "flag 1");
    ]
    log;
  check spin_result_t "as the model" (run_spin_model_script ~model:true script) spun;
  (* Which delays suspended: only those whose window held a wake. *)
  let e = Engine.create () in
  let cpu = Cpu.create e (Topology.flat 2) Costs.default ~id:0 ~safe:false () in
  let flag = ref false in
  let suspended = ref [] in
  Process.spawn e ~name:"spinner" (fun () ->
      Cpu.occupy cpu;
      Cpu.poll_until cpu ~deadline:100 (fun () -> false);
      Cpu.poll_wait cpu (fun () -> !flag));
  Process.spawn e ~name:"delayer" (fun () ->
      Process.delay e 30;
      flag := true;
      Process.delay e 20;
      for _ = 1 to 3 do
        let s0 = Engine.suspensions () in
        Process.delay e 50;
        suspended := (Engine.suspensions () - s0 > 0) :: !suspended
      done);
  Engine.run e;
  check Alcotest.(list bool) "suspended in (50,100], (100,150], (150,200]"
    [ false; true; true ] (List.rev !suspended);
  (* A pending spin counts as a live row, so a run stopped with one in
     flight is not quiescent. *)
  let e = Engine.create () in
  let cpu = Cpu.create e (Topology.flat 2) Costs.default ~id:0 ~safe:false () in
  Helpers.schedule e ~delay:1000 ignore;
  Process.spawn e ~name:"spinner" (fun () -> Cpu.poll_wait cpu (fun () -> false));
  Engine.run_until e ~time:500;
  check int_t "the spin and the event pending" 2 (Engine.live_rows e)

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
    Alcotest.test_case "cache: totals" `Quick test_cache_totals;
    Alcotest.test_case "cache: socket count cap" `Quick test_cache_socket_cap;
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
    Alcotest.test_case "tlb: warm fill, hit and flushes, minor words" `Quick
      test_tlb_warm_words;
    Alcotest.test_case "tlb: a fill resets the checker stamp" `Quick
      test_tlb_fill_resets_checker_stamp;
    Alcotest.test_case "cpu: compute accounting" `Quick test_cpu_compute_accounting;
    Alcotest.test_case "cpu+apic: delivery and interruption" `Quick test_ipi_delivery_and_interruption;
    Alcotest.test_case "cpu: masking defers irqs" `Quick test_irq_masking_defers;
    Alcotest.test_case "cpu: nmi bypasses mask" `Quick test_nmi_bypasses_mask;
    Alcotest.test_case "cpu: poll_wait services irqs" `Quick test_poll_wait_services_irqs;
    Alcotest.test_case "apic: multicast cluster cost" `Quick test_apic_multicast_cluster_cost;
    Alcotest.test_case "apic: delivery order is cluster-major" `Quick
      test_apic_delivery_order_cluster_major;
    Alcotest.test_case "apic: rejects self-IPI" `Quick test_apic_rejects_self_ipi;
    Alcotest.test_case "cpu: detached dispatch words" `Quick test_dispatch_words;
    Alcotest.test_case "cpu: scripted detached dispatch" `Quick test_dispatch_script;
    Alcotest.test_case "cpu: compute_until vs compute loop" `Quick
      test_compute_until_model;
    Alcotest.test_case "cpu: compute_until suspends once" `Quick
      test_compute_until_suspends_once;
    Alcotest.test_case "cpu: compute words per call" `Quick test_compute_words;
    Alcotest.test_case "cpu: idle spins = delay per slice (model)" `Quick test_spin_model;
    Alcotest.test_case "cpu: a window with a waking spin boundary" `Quick
      test_spin_window_wakes;
    Alcotest.test_case "cpu: idle spins across a seq renumber" `Quick
      test_spin_model_renumber;
    Alcotest.test_case "cpu: irq ring order, deferral and growth" `Quick test_irq_ring;
  ]
