(* Property-based tests (qcheck) on core data structures and the central
   coherence invariant. *)

let count = 200

(* --- Stats: mean/min/max agree with a reference fold --- *)

let prop_stats_mean =
  QCheck.Test.make ~count ~name:"stats mean matches reference"
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1e6))
    (fun values ->
      let s = Stats.create () in
      List.iter (Stats.add s) values;
      let n = float_of_int (List.length values) in
      let mean = List.fold_left ( +. ) 0.0 values /. n in
      Float.abs (Stats.mean s -. mean) < 1e-6 *. (1.0 +. Float.abs mean))

let prop_stats_percentile_bounds =
  QCheck.Test.make ~count ~name:"percentiles stay within [min,max]"
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1e6)) (float_bound_inclusive 100.0))
    (fun (values, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) values;
      match (Stats.percentile_opt s p, Stats.min_opt s, Stats.max_opt s) with
      | Some v, Some lo, Some hi -> v >= lo && v <= hi
      | _ -> false)

(* --- Rng: int stays in bounds for arbitrary positive bounds --- *)

let prop_rng_bounds =
  QCheck.Test.make ~count ~name:"rng int in bounds"
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* --- Vma.Set: remove_range never leaves overlap, preserves page count --- *)

let vma_layout_gen =
  (* Non-overlapping VMAs built from sorted segment boundaries. *)
  QCheck.Gen.(
    list_size (1 -- 8) (pair (0 -- 500) (1 -- 30)) >|= fun segments ->
    let _, vmas =
      List.fold_left
        (fun (cursor, acc) (gap, pages) ->
          let start = cursor + gap + 1 in
          (start + pages, Vma.make ~start_vpn:start ~pages () :: acc))
        (0, []) segments
    in
    List.rev vmas)

let total_pages set =
  List.fold_left (fun acc (v : Vma.t) -> acc + v.Vma.pages) 0 (Vma.Set.to_list set)

let prop_vma_remove_conserves_pages =
  QCheck.Test.make ~count ~name:"vma remove_range conserves pages"
    QCheck.(
      pair (make vma_layout_gen) (pair (int_range 0 600) (int_range 1 50)))
    (fun (vmas, (vpn, pages)) ->
      let set = List.fold_left Vma.Set.add Vma.Set.empty vmas in
      let before = total_pages set in
      let set', removed = Vma.Set.remove_range set ~vpn ~pages in
      let removed_pages = List.fold_left (fun a (v : Vma.t) -> a + v.Vma.pages) 0 removed in
      total_pages set' + removed_pages = before)

let prop_vma_remove_leaves_no_coverage =
  QCheck.Test.make ~count ~name:"vma remove_range leaves hole"
    QCheck.(
      pair (make vma_layout_gen) (pair (int_range 0 600) (int_range 1 50)))
    (fun (vmas, (vpn, pages)) ->
      let set = List.fold_left Vma.Set.add Vma.Set.empty vmas in
      let set', _ = Vma.Set.remove_range set ~vpn ~pages in
      let ok = ref true in
      for v = vpn to vpn + pages - 1 do
        if Vma.Set.find set' ~vpn:v <> None then ok := false
      done;
      !ok)

(* --- Page_table: map/unmap round-trips for arbitrary page sets --- *)

let vpn_set_gen = QCheck.Gen.(list_size (1 -- 40) (0 -- 100_000) >|= List.sort_uniq compare)

let prop_pt_roundtrip =
  QCheck.Test.make ~count ~name:"page table map/unmap round trip"
    (QCheck.make vpn_set_gen)
    (fun vpns ->
      let pt = Page_table.create () in
      List.iteri
        (fun i vpn -> Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:i))
        vpns;
      let all_present =
        List.for_all (fun vpn -> Pte.present (Page_table.walk pt ~vpn)) vpns
      in
      List.iter (fun vpn -> ignore (Page_table.unmap pt ~vpn ~free_tables:true ())) vpns;
      all_present
      && Page_table.mapped_count pt = 0
      && Page_table.table_pages pt = 0)

let prop_pt_iter_complete =
  QCheck.Test.make ~count ~name:"page table iter finds every mapping"
    (QCheck.make vpn_set_gen)
    (fun vpns ->
      let pt = Page_table.create () in
      List.iteri
        (fun i vpn -> Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:i))
        vpns;
      let seen = ref [] in
      Page_table.iter pt ~f:(fun vpn _ -> seen := vpn :: !seen);
      List.sort compare !seen = vpns)

(* --- Page_table: every operation against a reference model --- *)

type pt_op =
  | Pt_map of int * Tlb.page_size * int  (** vpn, size, pfn *)
  | Pt_update of int * int  (** vpn, index into [pte_updates] *)
  | Pt_unmap of int * bool  (** vpn, free_tables *)
  | Pt_unmap_range of int * int * bool  (** vpn, pages, free_tables *)

(* PTE functions that keep a PTE present and its size, as
   [Page_table.update] requires. *)
let pte_updates =
  [|
    Pte.write_protect;
    Pte.mark_dirty;
    Pte.make_cow;
    Pte.clean;
    (fun pte -> Pte.break_cow pte ~new_pfn:7);
  |]

(* Windows of 1200 pages that straddle a level-1, a level-2 and a level-3
   table boundary, and (at [64 lsl 9]) a 64-slot chunk boundary. *)
let pt_bases = [| 0; (64 lsl 9) - 600; (1 lsl 18) - 600; (1 lsl 27) - 600 |]

let pt_op_gen =
  let open QCheck.Gen in
  let vpn = map2 (fun b o -> pt_bases.(b) + o) (0 -- 3) (0 -- 1199) in
  frequency
    [
      (4, map2 (fun vpn pfn -> Pt_map (vpn, Tlb.Four_k, pfn)) vpn (0 -- 1000));
      (1, map2 (fun vpn pfn -> Pt_map (vpn land lnot 511, Tlb.Two_m, pfn)) vpn (0 -- 1000));
      (2, map2 (fun vpn i -> Pt_update (vpn, i)) vpn (0 -- (Array.length pte_updates - 1)));
      (2, map2 (fun vpn free -> Pt_unmap (vpn, free)) vpn bool);
      (1, map3 (fun v pages free -> Pt_unmap_range (v, pages, free)) vpn (1 -- 1100) bool);
    ]

let print_pt_op = function
  | Pt_map (vpn, size, pfn) ->
      Printf.sprintf "map %d %s pfn %d" vpn (if size = Tlb.Four_k then "4k" else "2m") pfn
  | Pt_update (vpn, i) -> Printf.sprintf "update %d f%d" vpn i
  | Pt_unmap (vpn, free) -> Printf.sprintf "unmap %d free=%b" vpn free
  | Pt_unmap_range (vpn, pages, free) ->
      Printf.sprintf "unmap_range %d +%d free=%b" vpn pages free

(* Maps of 4 KiB and 2 MiB pages, updates, and unmaps and range unmaps
   with and without table freeing, each checked as it happens: its result
   (a refused map, the old PTE, the removed (vpn, pte, size) leaves in
   order and whether tables were freed), walks around its VPN, the leaf
   and table counts; at the end, [iter]'s listing in ascending VPN order.
   The model keeps whole PTEs, PS bit included. *)
let prop_pt_vs_model =
  QCheck.Test.make ~count:100 ~name:"page table matches a model under every operation"
    (QCheck.make
       ~print:QCheck.Print.(list print_pt_op)
       QCheck.Gen.(list_size (1 -- 60) pt_op_gen))
    (fun ops ->
      let module M = Helpers.Pt_model in
      let pt = Page_table.create () and m = M.create () in
      let removal unmap =
        let removed = ref [] in
        let freed =
          unmap ~f:(fun vpn pte -> removed := (vpn, pte, Pte.size pte) :: !removed)
        in
        (List.rev !removed, freed)
      in
      let walk_agrees vpn =
        let want =
          match M.covering m vpn with Some (_, pte, _) -> pte | None -> Pte.none
        in
        Page_table.walk pt ~vpn = want
      in
      let step op =
        let vpn, agrees =
          match op with
          | Pt_map (vpn, size, pfn) ->
              let pte = Pte.user_data ~pfn in
              let accepted =
                match Page_table.map pt ~vpn ~size pte with
                | () -> true
                | exception Invalid_argument _ -> false
              in
              let modelled = M.map m ~vpn ~size (Pte.with_size pte size) in
              (vpn, accepted = Option.is_some modelled)
          | Pt_update (vpn, i) ->
              let f = pte_updates.(i) in
              let want =
                match M.update m ~vpn f with Some old -> old | None -> Pte.none
              in
              (vpn, Page_table.update pt ~vpn ~f = want)
          | Pt_unmap (vpn, free_tables) ->
              ( vpn,
                removal (fun ~f -> Page_table.unmap pt ~vpn ~free_tables ~f ())
                = M.unmap m ~vpn ~free_tables )
          | Pt_unmap_range (vpn, pages, free_tables) ->
              ( vpn,
                removal (fun ~f ->
                    Page_table.unmap_range pt ~vpn ~pages ~free_tables ~f)
                = M.unmap_range m ~vpn ~pages ~free_tables )
        in
        agrees
        && List.for_all walk_agrees [ vpn - 1; vpn; vpn + 1; vpn + 511; vpn + 512 ]
        && Page_table.mapped_count pt = Helpers.Int_map.cardinal m.M.leaves
        && Page_table.table_pages pt = List.length m.M.tables
        && Page_table.tables_freed pt = m.M.freed
      in
      let listed = ref [] in
      List.for_all step ops
      && begin
           Page_table.iter pt ~f:(fun vpn pte -> listed := (vpn, pte) :: !listed);
           List.rev !listed
           = List.map
               (fun (vpn, (pte, _)) -> (vpn, pte))
               (Helpers.Int_map.bindings m.M.leaves)
         end)

(* --- Tlb: a capacity-bounded FIFO model, checked after every op --- *)

type tlb_op =
  | Insert of Tlb.entry
  | Lookup of int * int  (* pcid, vpn *)
  | Invlpg of int * int
  | Invpcid of int * int
  | Drop of int * int
  | Flush_pcid of int
  | Flush_all

(* Few keys, so re-inserts of resident and of invalidated keys are common:
   4 KiB pages at vpns [k * 512 + j] and 2 MiB pages at [k * 512], for
   k < 3 and j < 6; PCIDs 1 and 2; some entries global, a few fractured. *)
let tlb_vpn_gen = QCheck.Gen.(map2 (fun k j -> (k * 512) + j) (0 -- 2) (0 -- 5))
let tlb_pcid_gen = QCheck.Gen.(1 -- 2)

let tlb_entry_gen =
  QCheck.Gen.(
    map
      (fun (((vpn, pcid), (huge, global)), (fractured, writable)) ->
        let size = if huge then Tlb.Two_m else Tlb.Four_k in
        let vpn = if huge then vpn land lnot 511 else vpn in
        { Tlb.vpn; pfn = vpn + 7; pcid; size; global; writable; fractured; ck_ver = -1 })
      (pair
         (pair (pair tlb_vpn_gen tlb_pcid_gen) (pair (frequency [ (3, return false); (1, return true) ]) (frequency [ (4, return false); (1, return true) ])))
         (pair (frequency [ (19, return false); (1, return true) ]) bool)))

let tlb_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun e -> Insert e) tlb_entry_gen);
        (4, map2 (fun p v -> Lookup (p, v)) tlb_pcid_gen tlb_vpn_gen);
        (1, map2 (fun p v -> Invlpg (p, v)) tlb_pcid_gen tlb_vpn_gen);
        (1, map2 (fun p v -> Invpcid (p, v)) tlb_pcid_gen tlb_vpn_gen);
        (1, map2 (fun p v -> Drop (p, v)) tlb_pcid_gen tlb_vpn_gen);
        (1, map (fun p -> Flush_pcid p) tlb_pcid_gen);
        (1, return Flush_all);
      ])

(* One plain fill of each of the generator's 42 non-global keys (PCIDs 1
   and 2, a 2 MiB page and six 4 KiB pages for each k) and up to 10 drops,
   which unlink cells from the middle of the FIFO, in a random order. *)
let tlb_fill_every_key_gen =
  let fill pcid vpn size =
    Insert
      {
        Tlb.vpn;
        pfn = vpn + 7;
        pcid;
        size;
        global = false;
        writable = true;
        fractured = false;
        ck_ver = -1;
      }
  in
  let fills =
    List.concat_map
      (fun pcid ->
        List.concat_map
          (fun k ->
            fill pcid (k * 512) Tlb.Two_m
            :: List.init 6 (fun j -> fill pcid ((k * 512) + j) Tlb.Four_k))
          [ 0; 1; 2 ])
      [ 1; 2 ]
  in
  QCheck.Gen.(
    let* drops =
      list_size (0 -- 10) (map2 (fun p v -> Drop (p, v)) tlb_pcid_gen tlb_vpn_gen)
    in
    shuffle_l (fills @ drops))

(* The reference model. Non-global entries sit in a FIFO list, oldest
   first, keyed (pcid, tag, size); re-inserting a resident key rewrites it
   in place, and a new key at capacity evicts the head. Globals are keyed
   (tag, size) and never evicted. A fractured insert sets the fracture
   flag, which promotes the next INVLPG or INVPCID to a full flush. *)
type tlb_model = {
  cap : int;
  mutable fifo : ((int * int * Tlb.page_size) * Tlb.entry) list;
  mutable globals : ((int * Tlb.page_size) * Tlb.entry) list;
  mutable fracture : bool;
  mutable st : Tlb.stats;
}

let tag_of (e : Tlb.entry) = match e.Tlb.size with Tlb.Four_k -> e.Tlb.vpn | Tlb.Two_m -> e.Tlb.vpn lsr 9
let size_bit = function Tlb.Four_k -> 0 | Tlb.Two_m -> 1

let model_full_flush md =
  md.fifo <- [];
  md.globals <- [];
  md.fracture <- false

let model_drop md ~pcid ~vpn ~globals =
  let gone (p, tag, size) =
    p = pcid && ((size = Tlb.Four_k && tag = vpn) || (size = Tlb.Two_m && tag = vpn lsr 9))
  in
  md.fifo <- List.filter (fun (k, _) -> not (gone k)) md.fifo;
  if globals then
    md.globals <-
      List.filter
        (fun ((tag, size), _) -> not (gone (pcid, tag, size)))
        md.globals

(* [lookup]'s order: 4 KiB, 4 KiB global, 2 MiB, 2 MiB global. *)
let model_find md ~pcid ~vpn =
  List.find_map Fun.id
    [
      List.assoc_opt (pcid, vpn, Tlb.Four_k) md.fifo;
      List.assoc_opt (vpn, Tlb.Four_k) md.globals;
      List.assoc_opt (pcid, vpn lsr 9, Tlb.Two_m) md.fifo;
      List.assoc_opt (vpn lsr 9, Tlb.Two_m) md.globals;
    ]

let model_promote md =
  md.st <- { md.st with Tlb.fracture_full_flushes = md.st.Tlb.fracture_full_flushes + 1 };
  model_full_flush md

(* Applies [op] to the model; returns what [lookup] finds, [None] for the
   other ops. *)
let model_step md op =
  let st = md.st in
  match op with
  | Insert e ->
      md.st <- { st with Tlb.insertions = st.Tlb.insertions + 1 };
      if e.Tlb.fractured then md.fracture <- true;
      if e.Tlb.global then begin
        let k = (tag_of e, e.Tlb.size) in
        md.globals <- (k, e) :: List.remove_assoc k md.globals
      end
      else begin
        let k = (e.Tlb.pcid, tag_of e, e.Tlb.size) in
        if List.mem_assoc k md.fifo then
          md.fifo <- List.map (fun (k', e') -> if k' = k then (k, e) else (k', e')) md.fifo
        else begin
          while List.length md.fifo >= md.cap do
            md.fifo <- List.tl md.fifo;
            md.st <- { md.st with Tlb.evictions = md.st.Tlb.evictions + 1 }
          done;
          md.fifo <- md.fifo @ [ (k, e) ]
        end
      end;
      None
  | Lookup (pcid, vpn) ->
      let r = model_find md ~pcid ~vpn in
      md.st <-
        (if Option.is_some r then { st with Tlb.hits = st.Tlb.hits + 1 }
         else { st with Tlb.misses = st.Tlb.misses + 1 });
      r
  | Invlpg (pcid, vpn) ->
      md.st <- { st with Tlb.invlpg_ops = st.Tlb.invlpg_ops + 1 };
      if md.fracture then model_promote md else model_drop md ~pcid ~vpn ~globals:true;
      None
  | Invpcid (pcid, vpn) ->
      md.st <- { st with Tlb.invpcid_ops = st.Tlb.invpcid_ops + 1 };
      if md.fracture then model_promote md else model_drop md ~pcid ~vpn ~globals:false;
      None
  | Drop (pcid, vpn) ->
      model_drop md ~pcid ~vpn ~globals:false;
      None
  | Flush_pcid pcid ->
      md.st <- { st with Tlb.invpcid_ops = st.Tlb.invpcid_ops + 1 };
      md.fifo <- List.filter (fun ((p, _, _), _) -> p <> pcid) md.fifo;
      None
  | Flush_all ->
      md.st <- { st with Tlb.full_flushes = st.Tlb.full_flushes + 1 };
      model_full_flush md;
      None

(* [Tlb.entries]: non-global entries sorted by (tag, pcid, size), then
   globals sorted by (tag, size) — the packed keys' order. *)
let model_entries md =
  let nonglobal =
    List.sort
      (fun ((p, t, s), _) ((p', t', s'), _) -> compare (t, p, size_bit s) (t', p', size_bit s'))
      md.fifo
  in
  let globals =
    List.sort (fun ((t, s), _) ((t', s'), _) -> compare (t, size_bit s) (t', size_bit s')) md.globals
  in
  List.map snd nonglobal @ List.map snd globals

let tlb_apply t = function
  | Insert e ->
      Tlb.insert t e;
      None
  | Lookup (pcid, vpn) -> Tlb.lookup t ~pcid ~vpn
  | Invlpg (pcid, vpn) ->
      Tlb.invlpg t ~current_pcid:pcid ~vpn;
      None
  | Invpcid (pcid, vpn) ->
      Tlb.invpcid_addr t ~pcid ~vpn;
      None
  | Drop (pcid, vpn) ->
      Tlb.drop t ~pcid ~vpn;
      None
  | Flush_pcid pcid ->
      Tlb.flush_pcid t ~pcid;
      None
  | Flush_all ->
      Tlb.flush_all t;
      None

let tlb_zero_stats =
  {
    Tlb.hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invlpg_ops = 0;
    invpcid_ops = 0;
    full_flushes = 0;
    fracture_full_flushes = 0;
  }

(* Capacities 1-8 evict from a table that never grows past 8 cells;
   4096 never evicts. Capacities 16-32 start with a fill of every
   non-global key, so the table grows while its cells are linked and then
   evicts: the random ops alone flush too often to reach 16 live keys.
   After every op, what [lookup] returned, [mem] of every generated
   address, [entries] and [stats] must equal the model's. *)
let prop_tlb_matches_model =
  QCheck.Test.make ~count ~name:"tlb agrees with a set model"
    (QCheck.make
       QCheck.Gen.(
         let* cap = frequency [ (4, 1 -- 8); (2, 16 -- 32); (1, return 4096) ] in
         let* fills =
           if cap >= 16 && cap <= 32 then tlb_fill_every_key_gen else return []
         in
         map (fun ops -> (cap, fills @ ops)) (list_size (0 -- 200) tlb_op_gen)))
    (fun (cap, ops) ->
      let t = Tlb.create ~capacity:cap () in
      let md = { cap; fifo = []; globals = []; fracture = false; st = tlb_zero_stats } in
      List.for_all
        (fun op ->
          let got = tlb_apply t op in
          let expect = model_step md op in
          got = expect
          && List.for_all
               (fun vpn ->
                 List.for_all
                   (fun pcid ->
                     Tlb.mem t ~pcid ~vpn = Option.is_some (model_find md ~pcid ~vpn))
                   [ 1; 2 ])
               [ 0; 1; 5; 511; 512; 515; 1024; 1029; 1535; 1536 ]
          && Tlb.entries t = model_entries md
          && Tlb.stats t = md.st)
        ops)

(* --- Flush_info: merge covers both inputs --- *)

let info_gen =
  QCheck.Gen.(
    map2
      (fun start pages ->
        Flush_info.ranged ~mm_id:1 ~start_vpn:start ~pages ~new_tlb_gen:1 ~stride:Tlb.Four_k ~freed_tables:false)
      (0 -- 1000) (1 -- 40))

let prop_flush_info_merge_covers =
  QCheck.Test.make ~count ~name:"flush_info merge covers both ranges"
    (QCheck.make QCheck.Gen.(pair info_gen info_gen))
    (fun (a, b) ->
      let m = Flush_info.merge a b in
      let covered_by_m (i : Flush_info.t) =
        i.Flush_info.full
        || List.for_all (fun vpn -> Helpers.flush_covers m ~vpn) (Flush_info.vpns i)
      in
      covered_by_m a && covered_by_m b)

(* --- Frame_alloc: arbitrary alloc/free sequences keep counts consistent --- *)

let prop_frames_consistent =
  QCheck.Test.make ~count ~name:"frame allocator counts consistent"
    (QCheck.make QCheck.Gen.(list_size (0 -- 100) bool))
    (fun ops ->
      let f = Frame_alloc.create ~frames:4096 in
      let live = ref [] in
      List.iter
        (fun do_alloc ->
          if do_alloc then live := Frame_alloc.alloc f :: !live
          else begin
            match !live with
            | [] -> ()
            | pfn :: rest ->
                Frame_alloc.free f pfn;
                live := rest
          end)
        ops;
      Frame_alloc.allocated f = List.length !live
      && List.for_all (Frame_alloc.is_allocated f) !live)

(* --- End-to-end coherence: random mm churn under every optimization --- *)

type churn_op = Touch of int | Madvise of int * int | Protect of int * bool

let churn_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Touch p) (0 -- 15);
        map2 (fun p n -> Madvise (p, 1 + (n mod 4))) (0 -- 12) int;
        map2 (fun p w -> Protect (p, w)) (0 -- 15) bool;
      ])

let run_churn ~opts ops =
  let m = Machine.create ~opts ~seed:99L () in
  let mm = Machine.new_mm m in
  let pages = 16 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        (try Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false
         with Fault.Segfault _ -> ());
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"mutator" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      List.iter
        (fun op ->
          try
            match op with
            | Touch p -> Access.write m ~cpu:0 ~vaddr:(addr + (p * Addr.page_size))
            | Madvise (p, n) ->
                let n = Stdlib.min n (pages - p) in
                if n > 0 then
                  Syscall.madvise_dontneed m ~cpu:0 ~addr:(addr + (p * Addr.page_size))
                    ~pages:n
            | Protect (p, w) ->
                Syscall.mprotect m ~cpu:0 ~addr:(addr + (p * Addr.page_size)) ~pages:1
                  ~writable:w
          with Fault.Segfault _ -> ())
        ops;
      Machine.delay m 30_000;
      stop := true);
  Kernel.run m;
  Checker.violation_count m.Machine.checker = 0

let prop_coherence_under_random_churn_all_opts =
  QCheck.Test.make ~count:30 ~name:"coherence invariant under random churn (all opts)"
    (QCheck.make QCheck.Gen.(list_size (5 -- 30) churn_op_gen))
    (fun ops -> run_churn ~opts:(Opts.all ~safe:true) ops)

let prop_coherence_under_random_churn_baseline =
  QCheck.Test.make ~count:20 ~name:"coherence invariant under random churn (baseline)"
    (QCheck.make QCheck.Gen.(list_size (5 -- 30) churn_op_gen))
    (fun ops -> run_churn ~opts:(Opts.baseline ~safe:true) ops)

(* --- end-to-end kernel invariants under random op sequences --- *)

type mm_op = Map of int | Touch_all | Drop of int | Unmap of int | Remap of int

let mm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Map (1 + (abs n mod 6))) int);
        (3, return Touch_all);
        (2, map (fun i -> Drop i) (0 -- 10));
        (2, map (fun i -> Unmap i) (0 -- 10));
        (1, map (fun i -> Remap i) (0 -- 10));
      ])

(* Replay ops on a live machine, tracking mapped regions; returns
   (machine, leftover regions). *)
let replay_ops ops =
  let m = Machine.create ~opts:(Opts.all ~safe:true) ~seed:7L () in
  let mm = Machine.new_mm m in
  let regions = ref [] in
  (* (addr, pages) list *)
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"driver" (fun () ->
      List.iter
        (fun op ->
          try
            match op with
            | Map pages ->
                let addr = Syscall.mmap m ~cpu:0 ~pages () in
                regions := (addr, pages) :: !regions
            | Touch_all ->
                List.iter
                  (fun (addr, pages) ->
                    Access.touch_range m ~cpu:0 ~addr ~pages ~write:true)
                  !regions
            | Drop i -> begin
                match List.nth_opt !regions i with
                | Some (addr, pages) ->
                    Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages
                | None -> ()
              end
            | Unmap i -> begin
                match List.nth_opt !regions i with
                | Some (addr, pages) ->
                    Syscall.munmap m ~cpu:0 ~addr ~pages;
                    regions := List.filteri (fun j _ -> j <> i) !regions
                | None -> ()
              end
            | Remap i -> begin
                match List.nth_opt !regions i with
                | Some (addr, pages) ->
                    let addr' = Syscall.mremap m ~cpu:0 ~addr ~pages in
                    regions :=
                      List.mapi
                        (fun j r -> if j = i then (addr', pages) else r)
                        !regions
                | None -> ()
              end
          with Fault.Segfault _ -> ())
        ops);
  Kernel.run m;
  (m, mm, !regions)

let prop_frames_conserved_end_to_end =
  QCheck.Test.make ~count:25 ~name:"kernel: frames conserved after full teardown"
    (QCheck.make QCheck.Gen.(list_size (1 -- 25) mm_op_gen))
    (fun ops ->
      let m, mm, regions = replay_ops ops in
      (* Tear the rest down and require exact frame conservation. *)
      let leak = ref false in
      Kernel.spawn_user m ~cpu:0 ~mm ~name:"teardown" (fun () ->
          List.iter
            (fun (addr, pages) -> Syscall.munmap m ~cpu:0 ~addr ~pages)
            regions;
          leak := Frame_alloc.allocated m.Machine.frames <> 0);
      Kernel.run m;
      (not !leak) && Checker.violation_count m.Machine.checker = 0)

let prop_mapped_readable_unmapped_faults =
  QCheck.Test.make ~count:25 ~name:"kernel: mapped readable, unmapped faults"
    (QCheck.make QCheck.Gen.(list_size (1 -- 20) mm_op_gen))
    (fun ops ->
      let m, mm, regions = replay_ops ops in
      let ok = ref true in
      Kernel.spawn_user m ~cpu:0 ~mm ~name:"verify" (fun () ->
          (* Everything still in a live region must be readable... *)
          List.iter
            (fun (addr, pages) ->
              try Access.touch_range m ~cpu:0 ~addr ~pages ~write:false
              with Fault.Segfault _ -> ok := false)
            regions;
          (* ...and a far-away address must fault. *)
          match Access.read m ~cpu:0 ~vaddr:(Addr.addr_of_vpn (1 lsl 28)) with
          | () -> ok := false
          | exception Fault.Segfault _ -> ());
      Kernel.run m;
      !ok && Checker.violation_count m.Machine.checker = 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_stats_mean;
      prop_stats_percentile_bounds;
      prop_rng_bounds;
      prop_vma_remove_conserves_pages;
      prop_vma_remove_leaves_no_coverage;
      prop_pt_roundtrip;
      prop_pt_iter_complete;
      prop_tlb_matches_model;
      prop_flush_info_merge_covers;
      prop_frames_consistent;
      prop_coherence_under_random_churn_all_opts;
      prop_coherence_under_random_churn_baseline;
      prop_frames_conserved_end_to_end;
      prop_mapped_readable_unmapped_faults;
    ]
  @ [
      (* A fixed seed: the same 100 operation lists on every run. *)
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 35 |]) prop_pt_vs_model;
    ]
