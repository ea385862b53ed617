(* Unit tests for kernel data structures: Opts, Flush_info, File, Vma,
   Rwsem, Mm_struct, Percpu, Machine construction cost, Checker. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let with_read sem f =
  Rwsem.down_read sem;
  Fun.protect ~finally:(fun () -> Rwsem.up_read sem) f

let with_write sem f =
  Rwsem.down_write sem;
  Fun.protect ~finally:(fun () -> Rwsem.up_write sem) f

(* --- Opts --- *)

let test_opts_baseline_everything_off () =
  let o = Opts.baseline ~safe:true in
  check bool_t "safe" true o.Opts.safe;
  let p = Opts.knobs o in
  check bool_t "concurrent off" false p.Opts.concurrent_flush;
  check bool_t "batching off" false p.Opts.userspace_batching;
  check int_t "threshold 33" 33 o.Opts.full_flush_threshold;
  check int_t "4 slots" 4 p.Opts.batch_slots

let test_opts_cumulative_order () =
  let stack = Opts.cumulative_general ~safe:true in
  check int_t "five stages in safe mode" 5 (List.length stack);
  let labels = List.map fst stack in
  check (Alcotest.list Alcotest.string) "labels"
    [ "baseline"; "+concurrent"; "+early-ack"; "+cacheline"; "+in-context" ]
    labels;
  (* Each stage keeps the previous stage's flags. *)
  let third = List.assoc "+cacheline" stack in
  check bool_t "still concurrent" true (Opts.knobs third).Opts.concurrent_flush;
  check bool_t "still early-ack" true (Opts.knobs third).Opts.early_ack;
  check bool_t "in-context not yet" false third.Opts.in_context_flush

let test_opts_cumulative_unsafe_skips_incontext () =
  let stack = Opts.cumulative_general ~safe:false in
  check int_t "four stages in unsafe mode" 4 (List.length stack);
  check bool_t "no in-context stage" true
    (not (List.mem_assoc "+in-context" stack))

(* [tlbsim --opts] resolves names through [Opts.switches]: a paper-only
   name under another backend is refused with an error naming it, and the
   shared names are accepted everywhere. *)
let test_paper_only_switches_refused_elsewhere () =
  check (Alcotest.list Alcotest.string) "paper-only names"
    [ "concurrent"; "early-ack"; "cacheline"; "cow"; "batching"; "freebsd" ]
    (List.filter_map
       (fun sw -> if sw.Opts.paper_only then Some sw.Opts.name else None)
       Opts.switches);
  List.iter
    (fun protocol ->
      let base = Opts.with_protocol protocol ~safe:true in
      List.iter
        (fun sw ->
          let label = Opts.protocol_label protocol ^ " " ^ sw.Opts.name in
          match sw.Opts.set base true with
          | (_ : Opts.t) -> check bool_t (label ^ " accepted") false sw.Opts.paper_only
          | exception Invalid_argument msg ->
              check bool_t (label ^ " refused") true sw.Opts.paper_only;
              check bool_t
                (Printf.sprintf "%s: %S names the option" label msg)
                true
                (String.starts_with ~prefix:sw.Opts.name msg))
        Opts.switches)
    [ Opts.Oracle; Opts.Sync_broadcast; Opts.Queue_spin ]

(* --- Flush_info --- *)

let test_flush_info_ranged () =
  let i = Flush_info.ranged ~mm_id:1 ~start_vpn:100 ~pages:5 ~new_tlb_gen:3 ~stride:Tlb.Four_k ~freed_tables:false in
  check int_t "entries" 5 (Flush_info.nr_entries i);
  check (Alcotest.list int_t) "vpns" [ 100; 101; 102; 103; 104 ] (Flush_info.vpns i);
  check bool_t "covers inside" true (Flush_info.covers i ~vpn:104);
  check bool_t "not outside" false (Flush_info.covers i ~vpn:105)

let test_flush_info_full () =
  let i = Flush_info.full ~mm_id:1 ~new_tlb_gen:3 ~freed_tables:false in
  check bool_t "covers everything" true (Flush_info.covers i ~vpn:123456);
  check int_t "entries" max_int (Flush_info.nr_entries i)

let test_flush_info_merge_ranges () =
  let a = Flush_info.ranged ~mm_id:1 ~start_vpn:100 ~pages:5 ~new_tlb_gen:3 ~stride:Tlb.Four_k ~freed_tables:false in
  let b = Flush_info.ranged ~mm_id:1 ~start_vpn:110 ~pages:2 ~new_tlb_gen:5 ~stride:Tlb.Four_k ~freed_tables:false in
  let m = Flush_info.merge a b in
  check bool_t "not full" false m.Flush_info.full;
  check int_t "start" 100 m.Flush_info.start_vpn;
  check int_t "spans hole" 12 m.Flush_info.pages;
  check int_t "max gen" 5 m.Flush_info.new_tlb_gen

let test_flush_info_merge_freed_tables_sticky () =
  let a =
    Flush_info.ranged ~mm_id:1 ~start_vpn:0 ~pages:1 ~freed_tables:true ~new_tlb_gen:1 ~stride:Tlb.Four_k
  in
  let b = Flush_info.ranged ~mm_id:1 ~start_vpn:5 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false in
  check bool_t "freed sticky" true (Flush_info.merge a b).Flush_info.freed_tables

let test_flush_info_merge_stride_mismatch_goes_full () =
  let a = Flush_info.ranged ~mm_id:1 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
  let b =
    Flush_info.ranged ~mm_id:1 ~start_vpn:512 ~pages:1 ~stride:Tlb.Two_m ~new_tlb_gen:2 ~freed_tables:false
  in
  check bool_t "full" true (Flush_info.merge a b).Flush_info.full

let test_flush_info_merge_rejects_cross_mm () =
  let a = Flush_info.ranged ~mm_id:1 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
  let b = Flush_info.ranged ~mm_id:2 ~start_vpn:0 ~pages:1 ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false in
  Alcotest.check_raises "cross-mm merge"
    (Invalid_argument "Flush_info.merge: different address spaces") (fun () ->
      ignore (Flush_info.merge a b))

(* --- File --- *)

let frames () = Frame_alloc.create ~frames:65536

let test_file_pagecache () =
  let f = File.create (frames ()) ~name:"a" ~size_pages:10 in
  check bool_t "not cached" false (File.cached f ~index:3);
  let p1 = File.frame_of_page f ~index:3 in
  check bool_t "cached now" true (File.cached f ~index:3);
  check int_t "stable frame" p1 (File.frame_of_page f ~index:3)

let dirty_in_range f ~index ~count =
  let acc = ref [] in
  File.iter_dirty f ~index ~count (fun i -> acc := i :: !acc);
  List.rev !acc

let test_file_dirty_tracking () =
  let f = File.create (frames ()) ~name:"a" ~size_pages:10 in
  File.mark_dirty f ~index:2;
  File.mark_dirty f ~index:7;
  File.mark_dirty f ~index:9;
  check (Alcotest.list int_t) "range query" [ 2; 7 ] (dirty_in_range f ~index:0 ~count:8);
  check (Alcotest.list int_t) "whole file" [ 2; 7; 9 ] (dirty_in_range f ~index:0 ~count:10);
  check (Alcotest.list int_t) "clamped" [ 9 ] (dirty_in_range f ~index:8 ~count:5);
  File.clear_dirty f ~index:7;
  check (Alcotest.list int_t) "after clean" [ 2 ] (dirty_in_range f ~index:0 ~count:8)

(* A walk visits the pages dirty when it starts: pages its callback (a
   sync that yields, in the simulator) dirties are left for the next walk,
   pages it cleans are still visited, and a walk nested inside it takes a
   snapshot of its own. *)
let test_file_iter_dirty_snapshot () =
  let f = File.create (frames ()) ~name:"a" ~size_pages:10 in
  File.mark_dirty f ~index:1;
  File.mark_dirty f ~index:4;
  let seen = ref [] and nested = ref [] in
  File.iter_dirty f ~index:0 ~count:10 (fun i ->
      seen := i :: !seen;
      if i = 1 then begin
        File.mark_dirty f ~index:6;
        File.clear_dirty f ~index:4;
        nested := dirty_in_range f ~index:0 ~count:10
      end);
  check (Alcotest.list int_t) "pages dirty at the start" [ 1; 4 ] (List.rev !seen);
  check (Alcotest.list int_t) "nested walk sees its own start" [ 1; 6 ] !nested;
  check (Alcotest.list int_t) "next walk" [ 1; 6 ] (dirty_in_range f ~index:0 ~count:10);
  (* Warm: the snapshots are reused. *)
  let before = Gc.minor_words () in
  File.iter_dirty f ~index:0 ~count:10 ignore;
  check int_t "warm walk: minor words" 0 (int_of_float (Gc.minor_words () -. before))

let test_file_bounds () =
  let f = File.create (frames ()) ~name:"a" ~size_pages:10 in
  Alcotest.check_raises "eof" (Invalid_argument "File a: page 10 out of range [0,10)")
    (fun () -> ignore (File.frame_of_page f ~index:10))

(* --- Vma --- *)

let test_vma_find () =
  let v1 = Vma.make ~start_vpn:100 ~pages:10 () in
  let v2 = Vma.make ~start_vpn:200 ~pages:5 () in
  let s = Vma.Set.add (Vma.Set.add Vma.Set.empty v1) v2 in
  check bool_t "inside v1" true (Vma.Set.find s ~vpn:109 = Some v1);
  check bool_t "gap" true (Vma.Set.find s ~vpn:110 = None);
  check bool_t "inside v2" true (Vma.Set.find s ~vpn:200 = Some v2)

let test_vma_overlap_rejected () =
  let s = Vma.Set.add Vma.Set.empty (Vma.make ~start_vpn:100 ~pages:10 ()) in
  Alcotest.check_raises "overlap" (Invalid_argument "Vma.Set.add: overlapping VMA")
    (fun () -> ignore (Vma.Set.add s (Vma.make ~start_vpn:105 ~pages:10 ())))

let test_vma_remove_splits () =
  let f = File.create (frames ()) ~name:"f" ~size_pages:100 in
  let v =
    Vma.make ~start_vpn:100 ~pages:10 ~backing:(Vma.File_shared { file = f; offset = 0 }) ()
  in
  let s = Vma.Set.add Vma.Set.empty v in
  let s, removed = Vma.Set.remove_range s ~vpn:103 ~pages:4 in
  (match removed with
  | [ r ] ->
      check int_t "clipped start" 103 r.Vma.start_vpn;
      check int_t "clipped pages" 4 r.Vma.pages;
      (* File offset follows the clip. *)
      (match Vma.file_page r ~vpn:103 with
      | Some (_, idx) -> check int_t "offset shifted" 3 idx
      | None -> Alcotest.fail "file backing lost")
  | _ -> Alcotest.fail "expected one removed piece");
  check bool_t "left piece" true (Vma.Set.find s ~vpn:102 <> None);
  check bool_t "hole" true (Vma.Set.find s ~vpn:105 = None);
  check bool_t "right piece" true (Vma.Set.find s ~vpn:108 <> None);
  (match Vma.Set.find s ~vpn:108 with
  | Some right -> begin
      match Vma.file_page right ~vpn:108 with
      | Some (_, idx) -> check int_t "right offset" 8 idx
      | None -> Alcotest.fail "right backing lost"
    end
  | None -> assert false);
  check int_t "two pieces" 2 (Vma.Set.cardinal s)

let test_vma_remove_across_vmas () =
  let s = Vma.Set.add Vma.Set.empty (Vma.make ~start_vpn:0 ~pages:10 ()) in
  let s = Vma.Set.add s (Vma.make ~start_vpn:20 ~pages:10 ()) in
  let _, removed = Vma.Set.remove_range s ~vpn:5 ~pages:20 in
  check int_t "two clipped pieces" 2 (List.length removed)

(* --- Rwsem --- *)

let test_rwsem_readers_share () =
  let e = Engine.create () in
  let sem = Rwsem.create e in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 1 to 3 do
    Process.spawn e ~name:(Printf.sprintf "r%d" i) (fun () ->
        with_read sem (fun () ->
            incr inside;
            max_inside := Stdlib.max !max_inside !inside;
            Process.delay e 100;
            decr inside))
  done;
  Engine.run e;
  check int_t "readers overlapped" 3 !max_inside

let test_rwsem_writer_excludes () =
  let e = Engine.create () in
  let sem = Rwsem.create e in
  let log = ref [] in
  Process.spawn e ~name:"w1" (fun () ->
      with_write sem (fun () ->
          log := "w1-in" :: !log;
          Process.delay e 100;
          log := "w1-out" :: !log));
  Process.spawn e ~name:"w2" (fun () ->
      Process.delay e 10;
      with_write sem (fun () -> log := "w2-in" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "serialized"
    [ "w1-in"; "w1-out"; "w2-in" ] (List.rev !log)

let test_rwsem_writer_blocks_new_readers () =
  let e = Engine.create () in
  let sem = Rwsem.create e in
  let log = ref [] in
  Process.spawn e ~name:"r1" (fun () ->
      with_read sem (fun () -> Process.delay e 100));
  Process.spawn e ~name:"w" (fun () ->
      Process.delay e 10;
      with_write sem (fun () -> log := "w" :: !log));
  Process.spawn e ~name:"r2" (fun () ->
      Process.delay e 20;
      (* Arrives while the writer waits: must queue behind it. *)
      with_read sem (fun () -> log := "r2" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "writer first" [ "w"; "r2" ] (List.rev !log)

let test_rwsem_misuse_rejected () =
  let e = Engine.create () in
  let sem = Rwsem.create e in
  Alcotest.check_raises "up_read unheld" (Invalid_argument "Rwsem.up_read: not held")
    (fun () -> Rwsem.up_read sem);
  Alcotest.check_raises "up_write unheld" (Invalid_argument "Rwsem.up_write: not held")
    (fun () -> Rwsem.up_write sem)

(* --- Mm_struct --- *)

let make_mm () =
  let e = Engine.create () in
  let reg = Cache.create_registry Topology.paper_machine Costs.default in
  let fr = Frame_alloc.create ~frames:1024 in
  Mm_struct.create ~engine:e ~registry:reg ~frames:fr ~n_cpus:56 ~id:1

let test_mm_gen () =
  let mm = make_mm () in
  check int_t "initial gen" 1 (Mm_struct.tlb_gen mm);
  check int_t "bump" 2 (Mm_struct.bump_tlb_gen mm);
  check int_t "reads back" 2 (Mm_struct.tlb_gen mm)

let test_mm_cpumask () =
  let mm = make_mm () in
  check (Alcotest.list int_t) "empty" [] (Cpuset.to_list (Mm_struct.cpuset mm));
  Mm_struct.cpu_set mm ~cpu:3;
  Mm_struct.cpu_set mm ~cpu:1;
  check (Alcotest.list int_t) "sorted" [ 1; 3 ] (Cpuset.to_list (Mm_struct.cpuset mm));
  check bool_t "isset" true (Cpuset.mem (Mm_struct.cpuset mm) 3);
  Mm_struct.cpu_clear mm ~cpu:3;
  check (Alcotest.list int_t) "after clear" [ 1 ] (Cpuset.to_list (Mm_struct.cpuset mm))

let test_mm_va_allocator_guard_gap () =
  let mm = make_mm () in
  let a = Mm_struct.alloc_va_range mm ~pages:10 () in
  let b = Mm_struct.alloc_va_range mm ~pages:10 () in
  check bool_t "non-overlapping with gap" true (b >= a + 11)

(* --- Percpu --- *)

let make_percpu () =
  let e = Engine.create () in
  let reg = Cache.create_registry Topology.paper_machine Costs.default in
  let cpu = Cpu.create e Topology.paper_machine Costs.default ~id:0 ~safe:true () in
  Percpu.create cpu reg

let test_percpu_pcids_distinct () =
  check bool_t "user pcid has high bit" true (Percpu.user_pcid 0 <> Percpu.kernel_pcid 0);
  check bool_t "slots distinct" true (Percpu.kernel_pcid 0 <> Percpu.kernel_pcid 1)

let test_percpu_slot_reuse () =
  let p = make_percpu () in
  let s1, f1 = Percpu.choose_slot p ~mm_id:10 ~now:1 in
  check bool_t "fresh slot no flush" false f1;
  let s2, f2 = Percpu.choose_slot p ~mm_id:10 ~now:2 in
  check int_t "same slot" s1 s2;
  check bool_t "no flush on reuse" false f2

let test_percpu_slot_eviction_lru () =
  let p = make_percpu () in
  (* Fill all six slots. *)
  for mm = 1 to Percpu.n_asids do
    ignore (Percpu.choose_slot p ~mm_id:mm ~now:mm)
  done;
  (* Touch mm 1 so mm 2 is LRU. *)
  ignore (Percpu.choose_slot p ~mm_id:1 ~now:100);
  let slot, needs_flush = Percpu.choose_slot p ~mm_id:99 ~now:101 in
  check bool_t "recycling flushes" true needs_flush;
  check int_t "evicted the LRU (mm 2's slot)" 1 slot

let test_percpu_defer_merging () =
  let p = make_percpu () in
  let info1 = Flush_info.ranged ~mm_id:1 ~start_vpn:10 ~pages:2 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false in
  let info2 = Flush_info.ranged ~mm_id:1 ~start_vpn:14 ~pages:2 ~new_tlb_gen:3 ~stride:Tlb.Four_k ~freed_tables:false in
  Percpu.defer_user_flush p info1 ~threshold:33;
  Percpu.defer_user_flush p info2 ~threshold:33;
  (match p.Percpu.pending_user with
  | Percpu.Ranged i ->
      check int_t "merged start" 10 i.Flush_info.start_vpn;
      check int_t "merged pages" 6 i.Flush_info.pages
  | Percpu.No_flush | Percpu.Full_flush -> Alcotest.fail "expected merged range");
  match Percpu.take_pending_user p with
  | Percpu.Ranged _ ->
      check bool_t "taken clears" true (p.Percpu.pending_user = Percpu.No_flush)
  | _ -> Alcotest.fail "expected ranged"

(* The CSD slots grow on demand, each with its own line; a claim on a
   busy slot takes a fresh record on the slot's line, and a released slot
   is reused as it stands. *)
let test_percpu_csd_lines_on_demand () =
  let p = make_percpu () in
  check int_t "no slots before any shootdown" 0 (Array.length p.Percpu.csds);
  let info = Flush_info.full ~mm_id:1 ~new_tlb_gen:1 ~freed_tables:false in
  let claim target seq =
    let cfd = Percpu.claim_csd p ~target ~consolidated:false ~info ~early_ack:false in
    cfd.Percpu.cfd_seq <- seq;
    cfd
  in
  let c3 = claim 3 0 in
  let l3 = c3.Percpu.cfd_line in
  check bool_t "the slot holds the claim" true (p.Percpu.csds.(3) == c3);
  check bool_t "busy once claimed" true c3.Percpu.cfd_busy;
  check bool_t "lower slots unused" true (p.Percpu.csds.(2) == Percpu.no_cfd);
  check bool_t "baseline info line" true
    (Option.fold ~none:false ~some:(fun l -> l == p.Percpu.line_stack_info)
       c3.Percpu.cfd_info_line);
  let l55 = (claim 55 1).Percpu.cfd_line in
  check bool_t "distinct per target" true (l3 != l55);
  check bool_t "growth keeps earlier slots" true (p.Percpu.csds.(3) == c3);
  check bool_t "sized to the highest target" true (Array.length p.Percpu.csds <= 2 * 56);
  let fresh = claim 3 2 in
  check bool_t "a busy slot takes a fresh record" true (fresh != c3);
  check bool_t "on the slot's line" true (fresh.Percpu.cfd_line == l3);
  check int_t "the busy request keeps its seq" 0 c3.Percpu.cfd_seq;
  fresh.Percpu.cfd_busy <- false;
  check bool_t "a released slot is reused" true (claim 3 3 == fresh);
  check int_t "with the new request's seq" 3 fresh.Percpu.cfd_seq

let test_percpu_defer_overflows_to_full () =
  let p = make_percpu () in
  let info = Flush_info.ranged ~mm_id:1 ~start_vpn:0 ~pages:34 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false in
  Percpu.defer_user_flush p info ~threshold:33;
  check bool_t "full" true (p.Percpu.pending_user = Percpu.Full_flush)

let test_percpu_defer_cross_mm_goes_full () =
  let p = make_percpu () in
  Percpu.defer_user_flush p
    (Flush_info.ranged ~mm_id:1 ~start_vpn:0 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false)
    ~threshold:33;
  Percpu.defer_user_flush p
    (Flush_info.ranged ~mm_id:2 ~start_vpn:0 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false)
    ~threshold:33;
  check bool_t "full on mm mix" true (p.Percpu.pending_user = Percpu.Full_flush)

(* --- Machine construction budget --- *)

(* Exact words [f] allocates: minor words plus words allocated straight into
   the major heap. OCaml 5.1 folds direct major allocations into the
   major-word counter at minor collections, so the call is bracketed by
   [Gc.minor] under a minor heap large enough that no collection runs
   inside it; what the second [Gc.minor] promotes counts in both the major
   and the promoted words and cancels out. *)
let words_allocated f =
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 2 * 1024 * 1024 };
  Fun.protect
    ~finally:(fun () -> Gc.set gc)
    (fun () ->
      let sample () =
        let s = Gc.quick_stat () in
        (Gc.minor_words (), s.Gc.major_words -. s.Gc.promoted_words)
      in
      Gc.minor ();
      let minor0, direct0 = sample () in
      let r = f () in
      Gc.minor ();
      let minor1, direct1 = sample () in
      ignore (Sys.opaque_identity r);
      int_of_float (minor1 -. minor0 +. (direct1 -. direct0)))

(* One Machine.create must cost what a run touches, not the configured RAM,
   TLB capacity or n_cpus^2: each layer has its own budget, so a regression
   names its layer, and the whole machine has one. *)
let test_construction_budget topo ~budget () =
  let n = Topology.n_cpus topo in
  let opts = Opts.all ~safe:true in
  let layer name words limit =
    if words > limit then
      Alcotest.failf "%s: %d words allocated, budget %d (%d CPUs)" name words limit n
  in
  layer "Frame_alloc.create (1 GiB)"
    (words_allocated (fun () -> Frame_alloc.create ~frames:262144))
    256;
  layer "Tlb.create" (words_allocated (fun () -> Tlb.create ())) 80;
  let engine = Engine.create () in
  let registry = Cache.create_registry topo Costs.default in
  let cpu = Cpu.create engine topo Costs.default ~id:0 ~safe:true () in
  layer "Percpu.create" (words_allocated (fun () -> Percpu.create cpu registry)) 512;
  layer "Cache.create_registry"
    (words_allocated (fun () -> Cache.create_registry topo Costs.default))
    ((4 * n) + 1024);
  layer "Machine.create" (words_allocated (fun () -> Machine.create ~topo ~opts ())) budget

let bigmachine_1024 =
  let sockets, cores_per_socket, smt = Bigmachine.topo_of_cpus 1024 in
  Topology.create ~sockets ~cores_per_socket ~smt

(* --- Checker --- *)

let entry ~vpn ~pfn ~writable =
  { Tlb.vpn; pfn; pcid = 1; size = Tlb.Four_k; global = false; writable; fractured = false; ck_ver = -1 }

(* A one-mapping page table; vpn 10 matches the default hit below. *)
let pt_of ?(vpn = 10) ?(size = Tlb.Four_k) pte =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn ~size pte;
  pt

let empty_pt () = Page_table.create ()

(* Run a hit check for its recording side effects only. *)
let run_hit c ~now ~cpu ~mm_id ~vpn ~write ~entry ~pt =
  ignore (Checker.check_hit c ~now ~cpu ~mm_id ~vpn ~write ~entry ~pt : Checker.result)

let test_checker_clean_hit () =
  let c = Checker.create () in
  run_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:true
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt:(pt_of (Pte.user_data ~pfn:5));
  check int_t "no violations" 0 (Checker.violation_count c);
  check int_t "checked" 1 (Checker.checks c)

let test_checker_stale_unmapped_is_violation () =
  let c = Checker.create () in
  run_hit c ~now:5 ~cpu:2 ~mm_id:1 ~vpn:10 ~write:false
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt:(empty_pt ());
  check int_t "violation" 1 (Checker.violation_count c);
  match Checker.violations c with
  | [ v ] ->
      check int_t "cpu" 2 v.Checker.v_cpu;
      check int_t "vpn" 10 v.Checker.v_vpn
  | _ -> Alcotest.fail "expected one violation"

let test_checker_inflight_window_excuses () =
  let c = Checker.create () in
  let info = Flush_info.ranged ~mm_id:1 ~start_vpn:10 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false in
  let token = Checker.begin_invalidation c info in
  run_hit c ~now:5 ~cpu:2 ~mm_id:1 ~vpn:10 ~write:false
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt:(empty_pt ());
  check int_t "benign while in flight" 0 (Checker.violation_count c);
  check int_t "recorded as race" 1 (Checker.benign_races c);
  Checker.end_invalidation c token;
  run_hit c ~now:6 ~cpu:2 ~mm_id:1 ~vpn:10 ~write:false
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt:(empty_pt ());
  check int_t "violation once window closed" 1 (Checker.violation_count c)

let test_checker_remap_detected () =
  let c = Checker.create () in
  run_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:false
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt:(pt_of (Pte.user_data ~pfn:99));
  check int_t "remap violation" 1 (Checker.violation_count c)

let test_checker_write_protect_detected () =
  let c = Checker.create () in
  let pt = pt_of (Pte.write_protect (Pte.user_data ~pfn:5)) in
  (* Reading through the stale-writable entry is fine... *)
  run_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:false
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt;
  check int_t "read ok" 0 (Checker.violation_count c);
  (* ...writing is not. *)
  run_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:true
    ~entry:(entry ~vpn:10 ~pfn:5 ~writable:true)
    ~pt;
  check int_t "write violation" 1 (Checker.violation_count c)

let test_checker_hugepage_offset_match () =
  let c = Checker.create () in
  (* A 2 MiB walk covering vpn 1034 with pfn base 4096: entry cached at the
     same granularity must agree at the offset. *)
  run_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:1034 ~write:false
    ~entry:{ Tlb.vpn = 1024; pfn = 4096; pcid = 1; size = Tlb.Two_m; global = false;
             writable = true; fractured = false; ck_ver = -1 }
    ~pt:(pt_of ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:4096));
  check int_t "consistent hugepage" 0 (Checker.violation_count c)

let suite =
  [
    Alcotest.test_case "opts: baseline all off" `Quick test_opts_baseline_everything_off;
    Alcotest.test_case "opts: cumulative order" `Quick test_opts_cumulative_order;
    Alcotest.test_case "opts: unsafe skips in-context" `Quick test_opts_cumulative_unsafe_skips_incontext;
    Alcotest.test_case "opts: paper-only switches refused elsewhere" `Quick
      test_paper_only_switches_refused_elsewhere;
    Alcotest.test_case "flush_info: ranged" `Quick test_flush_info_ranged;
    Alcotest.test_case "flush_info: full" `Quick test_flush_info_full;
    Alcotest.test_case "flush_info: merge ranges" `Quick test_flush_info_merge_ranges;
    Alcotest.test_case "flush_info: freed_tables sticky" `Quick test_flush_info_merge_freed_tables_sticky;
    Alcotest.test_case "flush_info: stride mismatch goes full" `Quick test_flush_info_merge_stride_mismatch_goes_full;
    Alcotest.test_case "flush_info: cross-mm merge rejected" `Quick test_flush_info_merge_rejects_cross_mm;
    Alcotest.test_case "file: pagecache" `Quick test_file_pagecache;
    Alcotest.test_case "file: dirty tracking" `Quick test_file_dirty_tracking;
    Alcotest.test_case "file: bounds" `Quick test_file_bounds;
    Alcotest.test_case "vma: find" `Quick test_vma_find;
    Alcotest.test_case "vma: overlap rejected" `Quick test_vma_overlap_rejected;
    Alcotest.test_case "vma: remove splits (file offsets)" `Quick test_vma_remove_splits;
    Alcotest.test_case "vma: remove across vmas" `Quick test_vma_remove_across_vmas;
    Alcotest.test_case "rwsem: readers share" `Quick test_rwsem_readers_share;
    Alcotest.test_case "rwsem: writers exclude" `Quick test_rwsem_writer_excludes;
    Alcotest.test_case "rwsem: writer blocks new readers" `Quick test_rwsem_writer_blocks_new_readers;
    Alcotest.test_case "rwsem: misuse rejected" `Quick test_rwsem_misuse_rejected;
    Alcotest.test_case "mm: generation counter" `Quick test_mm_gen;
    Alcotest.test_case "mm: cpumask" `Quick test_mm_cpumask;
    Alcotest.test_case "mm: va allocator leaves guard gap" `Quick test_mm_va_allocator_guard_gap;
    Alcotest.test_case "percpu: pcids distinct" `Quick test_percpu_pcids_distinct;
    Alcotest.test_case "percpu: slot reuse" `Quick test_percpu_slot_reuse;
    Alcotest.test_case "percpu: LRU eviction" `Quick test_percpu_slot_eviction_lru;
    Alcotest.test_case "percpu: deferred flush merging" `Quick test_percpu_defer_merging;
    Alcotest.test_case "percpu: defer overflows to full" `Quick test_percpu_defer_overflows_to_full;
    Alcotest.test_case "percpu: cross-mm defer goes full" `Quick test_percpu_defer_cross_mm_goes_full;
    Alcotest.test_case "percpu: csd lines on demand" `Quick test_percpu_csd_lines_on_demand;
    Alcotest.test_case "checker: clean hit" `Quick test_checker_clean_hit;
    Alcotest.test_case "machine: create budget, 56 CPUs" `Quick
      (test_construction_budget Topology.paper_machine ~budget:32_768);
    Alcotest.test_case "machine: create budget, 1024 CPUs" `Quick
      (test_construction_budget bigmachine_1024 ~budget:400_000);
    Alcotest.test_case "checker: unmapped stale hit" `Quick test_checker_stale_unmapped_is_violation;
    Alcotest.test_case "checker: in-flight window excuses" `Quick test_checker_inflight_window_excuses;
    Alcotest.test_case "checker: remap detected" `Quick test_checker_remap_detected;
    Alcotest.test_case "checker: write-protect detected" `Quick test_checker_write_protect_detected;
    Alcotest.test_case "checker: hugepage offsets" `Quick test_checker_hugepage_offset_match;
    Alcotest.test_case "file: iter_dirty walks a snapshot" `Quick
      test_file_iter_dirty_snapshot;
  ]
