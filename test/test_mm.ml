(* Unit tests for the memory substrate: Addr, Pte, Frame_alloc, Page_table,
   Ept, Nested_mmu. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- Addr --- *)

let test_addr_conversions () =
  check int_t "vpn" 3 (Addr.vpn_of_addr (3 * 4096));
  check int_t "vpn rounds down" 3 (Addr.vpn_of_addr ((3 * 4096) + 4095));
  check int_t "addr" (5 * 4096) (Addr.addr_of_vpn 5)

let test_addr_huge () =
  check bool_t "0 aligned" true (Addr.huge_aligned 0);
  check bool_t "512 aligned" true (Addr.huge_aligned 512);
  check bool_t "513 not" false (Addr.huge_aligned 513);
  check int_t "pages of 2m" 512 (Addr.pages_of_size Tlb.Two_m)

(* --- Pte --- *)

let test_pte_transitions () =
  let p = Pte.user_data ~pfn:42 in
  check bool_t "present" true (Pte.present p);
  check bool_t "writable" true (Pte.writable p);
  let cow = Pte.make_cow p in
  check bool_t "cow write-protected" false (Pte.writable cow);
  check bool_t "cow marked" true (Pte.cow cow);
  let broken = Pte.break_cow cow ~new_pfn:77 in
  check int_t "new frame" 77 (Pte.pfn broken);
  check bool_t "writable again" true (Pte.writable broken);
  check bool_t "not cow" false (Pte.cow broken);
  check bool_t "dirty" true (Pte.dirty broken)

let test_pte_clean_protect () =
  let p = Pte.mark_dirty (Pte.user_data ~pfn:1) in
  let wb = Pte.clean (Pte.write_protect p) in
  check bool_t "clean" false (Pte.dirty wb);
  check bool_t "write-protected" false (Pte.writable wb)

(* The x86-64 layout: P, R/W and U/S in bits 0-2, the frame number from
   bit 12, NX at the top (bit 62 of an OCaml int); D in bit 6, PS in bit 7,
   and COW in bit 9, the first software-available bit. *)
let test_pte_bits () =
  let bits p = (p : Pte.t :> int) in
  let p = Pte.user_data ~pfn:42 in
  check int_t "user data" ((42 lsl 12) lor 0b111 lor (1 lsl 62)) (bits p);
  check int_t "none" 0 (bits Pte.none);
  check bool_t "none not present" false (Pte.present Pte.none);
  check int_t "dirty" (bits p lor (1 lsl 6) lor (1 lsl 5)) (bits (Pte.mark_dirty p));
  check int_t "2m" (bits p lor (1 lsl 7)) (bits (Pte.with_size p Tlb.Two_m));
  check bool_t "2m size" true (Pte.size (Pte.with_size p Tlb.Two_m) = Tlb.Two_m);
  check int_t "cow" ((bits p land lnot 2) lor (1 lsl 9)) (bits (Pte.make_cow p));
  check bool_t "executable" true (Pte.executable (Pte.with_executable p true));
  let largest = (1 lsl 40) - 1 in
  check int_t "largest frame" largest (Pte.pfn (Pte.with_pfn p largest));
  Alcotest.check_raises "frame out of range"
    (Invalid_argument "Pte.with_pfn: frame number out of range") (fun () ->
      ignore (Pte.user_data ~pfn:(1 lsl 40)))

(* --- Frame_alloc --- *)

let test_frames_alloc_free () =
  let f = Frame_alloc.create ~frames:4096 in
  let a = Frame_alloc.alloc f in
  let b = Frame_alloc.alloc f in
  check bool_t "distinct" true (a <> b);
  check int_t "allocated" 2 (Frame_alloc.allocated f);
  Frame_alloc.free f a;
  check int_t "after free" 1 (Frame_alloc.allocated f);
  check bool_t "a free" false (Frame_alloc.is_allocated f a);
  check bool_t "b allocated" true (Frame_alloc.is_allocated f b)

let test_frames_recycling_and_generation () =
  let f = Frame_alloc.create ~frames:4096 in
  let a = Frame_alloc.alloc f in
  let g0 = Frame_alloc.generation f a in
  Frame_alloc.free f a;
  let a' = Frame_alloc.alloc f in
  check int_t "recycled same frame" a a';
  check int_t "generation bumped" (g0 + 1) (Frame_alloc.generation f a)

let test_frames_double_free_rejected () =
  let f = Frame_alloc.create ~frames:64 in
  let a = Frame_alloc.alloc f in
  Frame_alloc.free f a;
  Alcotest.check_raises "double free"
    (Invalid_argument (Printf.sprintf "Frame_alloc.free: frame %d not allocated" a))
    (fun () -> Frame_alloc.free f a)

let test_frames_huge_alignment () =
  let f = Frame_alloc.create ~frames:4096 in
  let h = Frame_alloc.alloc_huge f in
  check int_t "aligned" 0 (h land 511);
  check int_t "512 frames taken" 512 (Frame_alloc.allocated f);
  Frame_alloc.free_huge f h;
  check int_t "released" 0 (Frame_alloc.allocated f)

let test_frames_exhaustion () =
  let f = Frame_alloc.create ~frames:8 in
  for _ = 1 to 8 do
    ignore (Frame_alloc.alloc f)
  done;
  Alcotest.check_raises "oom" Frame_alloc.Out_of_memory (fun () ->
      ignore (Frame_alloc.alloc f))

(* A warm free then alloc allocates nothing: the free list is an int ring. *)
let test_frames_warm_words () =
  let f = Frame_alloc.create ~frames:4096 in
  let pfn = ref (Frame_alloc.alloc f) in
  Frame_alloc.free f !pfn;
  pfn := Frame_alloc.alloc f;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Frame_alloc.free f !pfn;
    pfn := Frame_alloc.alloc f
  done;
  check int_t "minor words" 0 (int_of_float (Gc.minor_words () -. before))

(* Reference allocator with eager full-size per-frame arrays: the
   demand-sized Frame_alloc must be indistinguishable from it. *)
module Eager_frames = struct
  type t = {
    frames : int;
    used : bool array;
    refcounts : int array;
    generations : int array;
    free_list : int Queue.t;
    mutable next_fresh : int;
    mutable huge_floor : int;
    mutable n_allocated : int;
  }

  let create ~frames =
    {
      frames;
      used = Array.make frames false;
      refcounts = Array.make frames 0;
      generations = Array.make frames 0;
      free_list = Queue.create ();
      next_fresh = 0;
      huge_floor = frames;
      n_allocated = 0;
    }

  let is_allocated t pfn = pfn >= 0 && pfn < t.frames && t.used.(pfn)

  let alloc t =
    let pfn =
      match Queue.take_opt t.free_list with
      | Some pfn -> pfn
      | None ->
          if t.next_fresh >= t.huge_floor then raise Frame_alloc.Out_of_memory;
          t.next_fresh <- t.next_fresh + 1;
          t.next_fresh - 1
    in
    t.used.(pfn) <- true;
    t.refcounts.(pfn) <- 1;
    t.n_allocated <- t.n_allocated + 1;
    pfn

  let ref_get t pfn =
    if not (is_allocated t pfn) then
      invalid_arg (Printf.sprintf "Frame_alloc.ref_get: frame %d not allocated" pfn);
    t.refcounts.(pfn) <- t.refcounts.(pfn) + 1

  let refcount t pfn =
    if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.refcount";
    t.refcounts.(pfn)

  let generation t pfn =
    if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.generation";
    t.generations.(pfn)

  let alloc_huge t =
    let base = (t.huge_floor - Addr.pages_per_huge) land lnot (Addr.pages_per_huge - 1) in
    if base < t.next_fresh then raise Frame_alloc.Out_of_memory;
    t.huge_floor <- base;
    Array.fill t.used base Addr.pages_per_huge true;
    t.n_allocated <- t.n_allocated + Addr.pages_per_huge;
    base

  let free t pfn =
    if not (is_allocated t pfn) then
      invalid_arg (Printf.sprintf "Frame_alloc.free: frame %d not allocated" pfn);
    t.refcounts.(pfn) <- t.refcounts.(pfn) - 1;
    if t.refcounts.(pfn) = 0 then begin
      t.used.(pfn) <- false;
      t.generations.(pfn) <- t.generations.(pfn) + 1;
      t.n_allocated <- t.n_allocated - 1;
      Queue.push pfn t.free_list
    end

  let free_huge t base =
    if base land (Addr.pages_per_huge - 1) <> 0 then
      invalid_arg "Frame_alloc.free_huge: base not hugepage-aligned";
    for pfn = base to base + Addr.pages_per_huge - 1 do
      if not (is_allocated t pfn) then
        invalid_arg (Printf.sprintf "Frame_alloc.free_huge: frame %d not allocated" pfn);
      t.used.(pfn) <- false;
      t.generations.(pfn) <- t.generations.(pfn) + 1
    done;
    t.n_allocated <- t.n_allocated - Addr.pages_per_huge
end

(* One op's observable outcome, the same shape for both allocators. *)
let outcome f =
  match f () with
  | v -> v
  | exception Frame_alloc.Out_of_memory -> "out of memory"
  | exception Invalid_argument msg -> "invalid: " ^ msg

(* Seeded op sequences against the eager reference: every step must give
   the same PFN, count, generation, answer or exception, and the same
   totals. A random phase mixes all ops (including frees of frames that
   are not allocated); an exhaustion phase then allocates hugepage runs
   until they meet the bump pointer and single frames until the pool is
   dry, so Out_of_memory must land on the same step. *)
let test_frames_growable_vs_eager ~frames () =
  let rng = Rng.create ~seed:(Int64.of_int (1000 + frames)) in
  let f = Frame_alloc.create ~frames and r = Eager_frames.create ~frames in
  let live = ref [||] and n_live = ref 0 in
  let push pfn =
    if !n_live = Array.length !live then begin
      let bigger = Array.make (Stdlib.max 16 (2 * !n_live)) 0 in
      Array.blit !live 0 bigger 0 !n_live;
      live := bigger
    end;
    !live.(!n_live) <- pfn;
    incr n_live
  in
  let take () =
    let i = Rng.int rng !n_live in
    let pfn = !live.(i) in
    decr n_live;
    !live.(i) <- !live.(!n_live);
    pfn
  in
  let huge = ref [] in
  let any_pfn () = Rng.int rng (frames + 2) - 1 in
  let step i name got want =
    if not (String.equal got want) then
      Alcotest.failf "frames=%d step %d %s: growable %S, eager %S" frames i name got want;
    if Frame_alloc.allocated f <> r.Eager_frames.n_allocated then
      Alcotest.failf "frames=%d step %d %s: allocated %d vs %d" frames i name
        (Frame_alloc.allocated f) r.Eager_frames.n_allocated
  in
  let both i name g e = step i name (outcome g) (outcome e) in
  (* An allocation op: returns whether the reference succeeded, after
     handing the new PFN to [keep]. *)
  let allocate i name growable eager keep =
    let got = outcome (fun () -> string_of_int (growable f)) in
    let want = outcome (fun () -> string_of_int (eager r)) in
    step i name got want;
    match int_of_string_opt want with
    | Some pfn ->
        keep pfn;
        true
    | None -> false
  in
  let alloc i = allocate i "alloc" Frame_alloc.alloc Eager_frames.alloc push in
  let alloc_huge i =
    allocate i "alloc_huge" Frame_alloc.alloc_huge Eager_frames.alloc_huge (fun base ->
        huge := base :: !huge)
  in
  for i = 0 to 2999 do
    match Rng.int rng 16 with
    | 0 | 1 | 2 | 3 | 4 -> ignore (alloc i)
    | 5 | 6 | 7 ->
        let pfn = if !n_live > 0 && Rng.int rng 8 > 0 then take () else any_pfn () in
        both i "free"
          (fun () -> Frame_alloc.free f pfn; "ok")
          (fun () -> Eager_frames.free r pfn; "ok")
    | 8 ->
        let pfn =
          if !n_live > 0 && Rng.int rng 4 > 0 then !live.(Rng.int rng !n_live) else any_pfn ()
        in
        both i "ref_get"
          (fun () -> Frame_alloc.ref_get f pfn; "ok")
          (fun () -> Eager_frames.ref_get r pfn; "ok");
        if Frame_alloc.is_allocated f pfn then push pfn
    | 9 -> ignore (alloc_huge i)
    | 10 ->
        let base =
          match !huge with
          | b :: rest when Rng.int rng 4 > 0 ->
              huge := rest;
              b
          | _ -> Rng.int rng (frames / Addr.pages_per_huge + 1) * Addr.pages_per_huge
        in
        both i "free_huge"
          (fun () -> Frame_alloc.free_huge f base; "ok")
          (fun () -> Eager_frames.free_huge r base; "ok")
    | 11 | 12 ->
        let pfn = any_pfn () in
        both i "refcount"
          (fun () -> string_of_int (Frame_alloc.refcount f pfn))
          (fun () -> string_of_int (Eager_frames.refcount r pfn))
    | 13 | 14 ->
        let pfn = any_pfn () in
        both i "generation"
          (fun () -> string_of_int (Frame_alloc.generation f pfn))
          (fun () -> string_of_int (Eager_frames.generation r pfn))
    | _ ->
        let pfn = any_pfn () in
        both i "is_allocated"
          (fun () -> string_of_bool (Frame_alloc.is_allocated f pfn))
          (fun () -> string_of_bool (Eager_frames.is_allocated r pfn))
  done;
  let i = ref 3000 in
  while alloc_huge !i do
    incr i
  done;
  while alloc !i do
    incr i
  done;
  check int_t "bump pointer met the hugepage floor" r.Eager_frames.huge_floor
    r.Eager_frames.next_fresh;
  for pfn = 0 to frames - 1 do
    if
      Frame_alloc.refcount f pfn <> Eager_frames.refcount r pfn
      || Frame_alloc.generation f pfn <> Eager_frames.generation r pfn
      || Frame_alloc.is_allocated f pfn <> Eager_frames.is_allocated r pfn
    then Alcotest.failf "frames=%d: final state of frame %d differs" frames pfn
  done

(* --- Page_table --- *)

let test_pt_map_walk () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:1000 ~size:Tlb.Four_k (Pte.user_data ~pfn:50);
  let pte = Page_table.walk pt ~vpn:1000 in
  check int_t "pfn" 50 (Pte.pfn pte);
  check bool_t "4 KiB leaf" true (Pte.size pte = Tlb.Four_k);
  check bool_t "unmapped misses" true (Page_table.walk pt ~vpn:1001 = Pte.none);
  check int_t "mapped count" 1 (Page_table.mapped_count pt)

let test_pt_hugepage () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:8192);
  let pte = Page_table.walk pt ~vpn:(1024 + 100) in
  check bool_t "hugepage covers inner vpn" true (Pte.present pte);
  check int_t "pfn" 8192 (Pte.pfn pte);
  check bool_t "2m size" true (Pte.size pte = Tlb.Two_m);
  Alcotest.check_raises "unaligned huge"
    (Invalid_argument "Page_table.map: hugepage VPN must be 2MiB-aligned") (fun () ->
      Page_table.map pt ~vpn:7 ~size:Tlb.Two_m (Pte.user_data ~pfn:0))

let test_pt_double_map_rejected () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  Alcotest.check_raises "double map"
    (Invalid_argument "Page_table.map: vpn 10 already mapped") (fun () ->
      Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:2))

let test_pt_unmap () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  let removed = ref [] in
  let f vpn pte = removed := (vpn, pte) :: !removed in
  let freed = Page_table.unmap pt ~vpn:10 ~f () in
  (match !removed with
  | [ (vpn, pte) ] ->
      check int_t "vpn" 10 vpn;
      check int_t "pfn" 1 (Pte.pfn pte);
      check bool_t "4k" true (Pte.size pte = Tlb.Four_k)
  | _ -> Alcotest.fail "expected one removal");
  check bool_t "no tables freed without flag" false freed;
  check int_t "empty" 0 (Page_table.mapped_count pt);
  removed := [];
  ignore (Page_table.unmap pt ~vpn:10 ~f () : bool);
  check bool_t "second unmap empty" true (!removed = [])

let test_pt_unmap_frees_tables () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  let tables_before = Page_table.table_pages pt in
  check int_t "three intermediate tables" 3 tables_before;
  check bool_t "tables freed" true (Page_table.unmap pt ~vpn:10 ~free_tables:true ());
  check int_t "no tables left" 0 (Page_table.table_pages pt);
  check int_t "freed counter" 3 (Page_table.tables_freed pt)

let test_pt_unmap_range_spans_hugepage () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:0 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  Page_table.map pt ~vpn:512 ~size:Tlb.Two_m (Pte.user_data ~pfn:512);
  Page_table.map pt ~vpn:1024 ~size:Tlb.Four_k (Pte.user_data ~pfn:2);
  let removed = ref 0 in
  ignore
    (Page_table.unmap_range pt ~vpn:0 ~pages:1025 ~f:(fun _ _ -> incr removed) ~free_tables:false : bool);
  check int_t "three removed" 3 !removed;
  check int_t "nothing left" 0 (Page_table.mapped_count pt)

let test_pt_update () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  let old_pte = Page_table.update pt ~vpn:10 ~f:Pte.write_protect in
  check bool_t "was writable" true (Pte.writable old_pte);
  check bool_t "now protected" false (Pte.writable (Page_table.walk pt ~vpn:10));
  check bool_t "unmapped update" true (Page_table.update pt ~vpn:11 ~f:Fun.id = Pte.none);
  Alcotest.check_raises "update keeps the PTE present"
    (Invalid_argument "Page_table.update: f must keep the PTE present and its size")
    (fun () -> ignore (Page_table.update pt ~vpn:10 ~f:(fun _ -> Pte.none)))

let test_pt_version_bumps () =
  let pt = Page_table.create () in
  let v0 = Page_table.version pt in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  let v1 = Page_table.version pt in
  check bool_t "map bumps" true (v1 > v0);
  ignore (Page_table.update pt ~vpn:10 ~f:Pte.write_protect);
  check bool_t "update bumps" true (Page_table.version pt > v1)

let test_pt_iter () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:1);
  Page_table.map pt ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:2048);
  Page_table.map pt ~vpn:((1 lsl 27) + 5) ~size:Tlb.Four_k (Pte.user_data ~pfn:3);
  let seen = ref [] in
  Page_table.iter pt ~f:(fun vpn _ -> seen := vpn :: !seen);
  check (Alcotest.list int_t) "all leaves with correct vpns, in order"
    [ 10; 1024; (1 lsl 27) + 5 ]
    (List.rev !seen)

(* A page table against a reference model: leaves in a map keyed by base
   VPN, tables as a set of (level, prefix), where a level-[l] table covers
   the VPNs with prefix [vpn lsr (9 * l)]. Random maps, unmaps and range
   unmaps, with and without table freeing, over VPNs that straddle level-1,
   level-2 and level-3 table boundaries, recycle freed tables into other
   parts of the tree; every walk, count and listing must match the model,
   so a recycled table that kept a stale slot shows up as a wrong walk. *)
module Int_map = Helpers.Int_map
module Pt_model = Helpers.Pt_model

let test_pt_vs_model () =
  let rng = Rng.create ~seed:17L in
  let pt = Page_table.create () and m = Pt_model.create () in
  (* Each base's 2048-page window crosses a table boundary at some level,
     and the windows at [64 lsl 9], [64 lsl 18] and [64 lsl 27] cross a
     64-slot chunk boundary (slots 63/64) at levels 2, 3 and 4; level-1
     indices cover every chunk. *)
  let bases =
    [|
      0;
      (64 lsl 9) - 1024;
      (1 lsl 18) - 1024;
      (64 lsl 18) - 1024;
      (1 lsl 27) - 1024;
      (64 lsl 27) - 1024;
      5 lsl 27;
    |]
  in
  let random_vpn () = Rng.choose rng bases + Rng.int rng 2048 in
  let size_t =
    Alcotest.testable
      (fun fmt s -> Format.pp_print_string fmt (if s = Tlb.Four_k then "4k" else "2m"))
      ( = )
  in
  let removal_t = Alcotest.(pair (list (triple int int size_t)) bool) in
  let removal unmap =
    let removed = ref [] in
    let freed =
      unmap ~f:(fun vpn pte -> removed := (vpn, Pte.pfn pte, Pte.size pte) :: !removed)
    in
    (List.rev !removed, freed)
  in
  let check_walk what vpn =
    let pte = Page_table.walk pt ~vpn in
    let got =
      if Pte.present pte then
        Some (Pte.pfn pte, Pte.size pte, if Pte.size pte = Tlb.Four_k then 4 else 3)
      else None
    and want =
      Option.map
        (fun (_, pfn, size) -> (pfn, size, if size = Tlb.Four_k then 4 else 3))
        (Pt_model.covering m vpn)
    in
    check Alcotest.(option (triple int size_t int)) (Printf.sprintf "%s: walk %d" what vpn) want got
  in
  for step = 1 to 4000 do
    let what = Printf.sprintf "step %d" step in
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let vpn = random_vpn () in
        let ok =
          match Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:step) with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        check bool_t (what ^ ": 4k map accepted") (Option.is_some (Pt_model.map m ~vpn ~size:Tlb.Four_k step)) ok
    | 4 ->
        let vpn = random_vpn () land lnot 511 in
        let ok =
          match Page_table.map pt ~vpn ~size:Tlb.Two_m (Pte.user_data ~pfn:step) with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        check bool_t (what ^ ": 2m map accepted") (Option.is_some (Pt_model.map m ~vpn ~size:Tlb.Two_m step)) ok
    | 5 | 6 | 7 ->
        let vpn = random_vpn () and free_tables = Rng.int rng 4 > 0 in
        check removal_t (what ^ ": unmap")
          (Pt_model.unmap m ~vpn ~free_tables)
          (removal (fun ~f -> Page_table.unmap pt ~vpn ~free_tables ~f ()))
    | 8 ->
        let vpn = random_vpn () and pages = 1 + Rng.int rng 1100 in
        let free_tables = Rng.int rng 4 > 0 in
        check removal_t (what ^ ": unmap_range")
          (Pt_model.unmap_range m ~vpn ~pages ~free_tables)
          (removal (fun ~f -> Page_table.unmap_range pt ~vpn ~pages ~free_tables ~f))
    | _ -> ());
    for _ = 1 to 4 do
      check_walk what (random_vpn ())
    done;
    check int_t (what ^ ": mapped_count") (Int_map.cardinal m.Pt_model.leaves)
      (Page_table.mapped_count pt);
    check int_t (what ^ ": table_pages") (List.length m.Pt_model.tables)
      (Page_table.table_pages pt);
    check int_t (what ^ ": tables_freed") m.Pt_model.freed (Page_table.tables_freed pt);
    if step mod 100 = 0 then begin
      let listed = ref [] in
      Page_table.iter pt ~f:(fun vpn pte ->
          listed := (vpn, Pte.pfn pte, Pte.size pte) :: !listed);
      check
        Alcotest.(list (triple int int size_t))
        (what ^ ": iter")
        (List.map (fun (vpn, (pfn, size)) -> (vpn, pfn, size)) (Int_map.bindings m.Pt_model.leaves))
        (List.rev !listed)
    end
  done;
  check bool_t "tables were freed and reused" true (Page_table.tables_freed pt > 100)

(* Slots at the edges of the 64-slot chunks, at every level: each VPN
   takes its index at each of the four levels from {0, 63, 64, 511}. Every
   mapping walks to its own PTE, its neighbours in slots 62, 65 and 510
   stay unmapped, [iter] lists the leaves in ascending VPN order, and
   unmapping them all (in a scrambled order, freeing tables) empties the
   tree, each walk still right after every unmap. *)
let test_pt_chunk_edges () =
  let pt = Page_table.create () in
  let edges = [ 0; 63; 64; 511 ] in
  let vpn_of i4 i3 i2 i1 = (i4 lsl 27) lor (i3 lsl 18) lor (i2 lsl 9) lor i1 in
  let vpns =
    List.concat_map
      (fun i4 ->
        List.concat_map
          (fun i3 -> List.concat_map (fun i2 -> List.map (vpn_of i4 i3 i2) edges) edges)
          edges)
      edges
  in
  List.iter
    (fun vpn -> Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:vpn))
    vpns;
  let walk vpn =
    let pte = Page_table.walk pt ~vpn in
    if Pte.present pte then Some (Pte.pfn pte) else None
  in
  let mapped = Hashtbl.create 256 in
  List.iter (fun vpn -> Hashtbl.replace mapped vpn ()) vpns;
  let check_walks what =
    List.iter
      (fun vpn ->
        List.iter
          (fun i1 ->
            let v = (vpn land lnot 511) lor i1 in
            let want = if Hashtbl.mem mapped v then Some v else None in
            let what = Printf.sprintf "%s: walk %d" what v in
            check Alcotest.(option int) what want (walk v))
          [ 0; 62; 63; 64; 65; 510; 511 ])
      vpns
  in
  check_walks "mapped";
  let listed = ref [] in
  Page_table.iter pt ~f:(fun vpn pte ->
      check int_t "leaf pfn" vpn (Pte.pfn pte);
      listed := vpn :: !listed);
  check (Alcotest.list int_t) "iter in ascending vpn order" (List.sort Int.compare vpns)
    (List.rev !listed);
  (* 1 level-3 table per level-4 edge, and so on down. *)
  check int_t "tables" (4 + 16 + 64) (Page_table.table_pages pt);
  let rng = Rng.create ~seed:0x63L in
  let order = Array.of_list vpns in
  for i = Array.length order - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iteri
    (fun i vpn ->
      let removed = ref 0 in
      ignore
        (Page_table.unmap pt ~vpn ~free_tables:true ~f:(fun _ _ -> incr removed) () : bool);
      check int_t "removed" 1 !removed;
      Hashtbl.remove mapped vpn;
      if i mod 37 = 0 then check_walks (Printf.sprintf "after %d unmaps" (i + 1)))
    order;
  check_walks "emptied";
  check int_t "nothing mapped" 0 (Page_table.mapped_count pt);
  check int_t "every table freed" 0 (Page_table.table_pages pt);
  check int_t "tables freed" (4 + 16 + 64) (Page_table.tables_freed pt)

(* The first map into an empty tree builds three tables and writes one
   chunk of each, and one of the root's child chunks: 4 chunks of 65
   words, 4 chunk indexes of 9 (the level-2 table has one for leaves and
   one for child tables) and 3 node records of 6, 314 words in all and all
   of them in the minor heap. The PTE itself is an int and costs nothing
   to store. One 512-slot array per table went straight to the major heap
   as 513 words. *)
let test_pt_first_map_words () =
  let pte = Pte.user_data ~pfn:1 in
  let pt = Page_table.create () in
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let major0 = direct_major () and minor0 = Gc.minor_words () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k pte;
  let minor = int_of_float (Gc.minor_words () -. minor0) in
  check int_t "no direct major words" 0 (int_of_float (direct_major () -. major0));
  check int_t "minor words" 314 minor

(* A map followed by an unmap that frees the page's three tables, over
   and over: after the first round the freed tables come back for the next
   map, so no 513-word node is allocated again. Direct major words are
   major-heap allocations that did not come from promotion. *)
let test_pt_recycled_tables_no_major_words () =
  let pt = Page_table.create () in
  let pte = Pte.user_data ~pfn:1 in
  let cycle () =
    Page_table.map pt ~vpn:10 ~size:Tlb.Four_k pte;
    ignore (Page_table.unmap pt ~vpn:10 ~free_tables:true ())
  in
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  cycle ();
  let before = direct_major () in
  for _ = 1 to 1000 do
    cycle ()
  done;
  check int_t "no direct major words" 0 (int_of_float (direct_major () -. before));
  check int_t "three tables freed per cycle" 3003 (Page_table.tables_freed pt);
  check int_t "none left in the tree" 0 (Page_table.table_pages pt)

(* A table freed and rebuilt allocates nothing once warm: each map takes
   back the three tables the unmap before it freed, off the per-level
   spare stacks linked through the tables themselves. *)
let test_pt_table_freed_and_rebuilt_words () =
  let pt = Page_table.create () in
  let pte = Pte.user_data ~pfn:1 in
  let cycle () =
    Page_table.map pt ~vpn:10 ~size:Tlb.Four_k pte;
    ignore (Page_table.unmap pt ~vpn:10 ~free_tables:true ())
  in
  cycle ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    cycle ()
  done;
  check int_t "minor words" 0 (int_of_float (Gc.minor_words () -. before));
  check int_t "three tables freed per cycle" 3003 (Page_table.tables_freed pt)

(* The hot page-table calls allocate nothing on a warm table: a walk, an
   update with a closure that captures nothing, an unmap of a 4 KiB page
   that frees no table, and an [iter] whose callback allocates nothing.
   PTEs are ints, walks and updates return the PTE itself, and an unmap
   hands its leaf to a callback instead of returning a list. (Passing
   that callback costs its option box, 2 words, where the call is not
   inlined, as under the dev profile's -opaque, so the unmap here passes
   none.) Each call runs 1000 times. *)
let test_pt_hot_calls_allocate_nothing () =
  let pt = Page_table.create () in
  let vpns = [ 10; 11; 700; 1024; (1 lsl 27) + 5 ] in
  List.iter
    (fun vpn -> Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:vpn))
    vpns;
  Page_table.map pt ~vpn:4096 ~size:Tlb.Two_m (Pte.user_data ~pfn:4096);
  let leaves = ref 0 in
  let count _ _ = incr leaves in
  let words what f =
    let before = Gc.minor_words () in
    for i = 1 to 1000 do
      f i
    done;
    check int_t (what ^ ": minor words") 0 (int_of_float (Gc.minor_words () -. before))
  in
  words "walk" (fun i ->
      ignore (Page_table.walk pt ~vpn:(List.nth vpns (i mod 5)) : Pte.t));
  words "walk a hugepage" (fun i -> ignore (Page_table.walk pt ~vpn:(4096 + i) : Pte.t));
  words "walk a miss" (fun i -> ignore (Page_table.walk pt ~vpn:(20_000 + i) : Pte.t));
  words "update" (fun _ ->
      ignore (Page_table.update pt ~vpn:700 ~f:Pte.mark_dirty : Pte.t));
  let unmap_words = ref 0 in
  for i = 1 to 1000 do
    let vpn = 12 + (i land 31) in
    Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:vpn);
    let before = Gc.minor_words () in
    let freed = Page_table.unmap pt ~vpn ~free_tables:true () in
    unmap_words := !unmap_words + int_of_float (Gc.minor_words () -. before);
    if freed then Alcotest.fail "unmap freed a table"
  done;
  check int_t "unmap: minor words" 0 !unmap_words;
  check int_t "unmap: leaves left" 6 (Page_table.mapped_count pt);
  words "iter" (fun _ -> Page_table.iter pt ~f:count);
  check int_t "iter: leaves" 6000 !leaves

(* An anonymous demand fault on a 1-CPU machine whose page tables already
   exist allocates nothing. With nothing else pending, each of its delays
   advances the clock without suspending the process ([try_advance]'s
   fast path), so the count has no engine state in it: the PTE is an
   int, the walk returns it, and neither the VMA lookup nor the fault's
   clean-up builds a closure or an option. *)
let test_demand_fault_words () =
  let m =
    Machine.create ~topo:(Topology.flat 1) ~opts:(Opts.baseline ~safe:true) ~seed:17L ()
  in
  let mm = Machine.new_mm m in
  let words = ref (-1) in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"faulter" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
      Fault.handle m ~cpu:0 ~mm ~vaddr:addr ~write:true;
      let vaddr = Addr.addr_of_vpn (Addr.vpn_of_addr addr + 1) in
      let before = Gc.minor_words () in
      Fault.handle m ~cpu:0 ~mm ~vaddr ~write:true;
      words := int_of_float (Gc.minor_words () -. before));
  Kernel.run m;
  check int_t "mapped" 2 (Page_table.mapped_count (Mm_struct.page_table mm));
  check int_t "minor words" 0 !words

(* Minor words of the calls the system-call, mmap_sem and window brackets
   wrap, on a warm 1-CPU machine with every paper optimization (safe
   mode), where delays advance the clock without suspending the process.
   [f] runs in a user thread and returns the words it counted. *)
let on_warm_cpu f =
  let m =
    Machine.create ~topo:(Topology.flat 1) ~opts:(Opts.all_general ~safe:true) ~seed:17L ()
  in
  let mm = Machine.new_mm m in
  let words = ref (-1) in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"pinned" (fun () -> words := f m);
  Kernel.run m;
  Kernel.check_run m ~who:"pinned";
  !words

let words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* The zap of a 1-page madvise(DONTNEED), its page refaulted in between. *)
let test_madvise_words () =
  let words =
    on_warm_cpu (fun m ->
        let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
        let zap () = Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:1 in
        Access.write m ~cpu:0 ~vaddr:addr;
        zap ();
        Access.write m ~cpu:0 ~vaddr:addr;
        words_of zap)
  in
  check int_t "minor words" 79 words

(* An 8-page munmap with 1 page mapped, after one warm-up cycle. The
   three tables it frees go on the spare stacks without a list cell. *)
let test_munmap_words () =
  let words =
    on_warm_cpu (fun m ->
        let mapped () =
          let addr = Syscall.mmap m ~cpu:0 ~pages:8 () in
          Access.write m ~cpu:0 ~vaddr:addr;
          addr
        in
        let addr = mapped () in
        Syscall.munmap m ~cpu:0 ~addr ~pages:8;
        let addr = mapped () in
        words_of (fun () -> Syscall.munmap m ~cpu:0 ~addr ~pages:8))
  in
  check int_t "minor words" 101 words

(* A CoW write access after fork, fault included, after one warm-up break. *)
let test_cow_write_words () =
  let words =
    on_warm_cpu (fun m ->
        let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
        Access.touch_range m ~cpu:0 ~addr ~pages:2 ~write:true;
        ignore (Fork.fork m ~cpu:0 : Mm_struct.t);
        Access.write m ~cpu:0 ~vaddr:addr;
        let vaddr = Addr.addr_of_vpn (Addr.vpn_of_addr addr + 1) in
        words_of (fun () -> Access.write m ~cpu:0 ~vaddr))
  in
  check int_t "minor words" 53 words

(* A warm TLB fill and a warm TLB hit through Access: the fill rewrites a
   slot's record in place and the hit returns that record, not an option.
   The page was written once, so the TLB has grown and the page table is
   built; a full flush empties the TLB before the fill, and the first hit
   after the fill has the checker validate the entry, so the pinned hit is
   the checker's fast path. *)
let test_access_tlb_words () =
  let fill = ref (-1) and hit = ref (-1) in
  ignore
    (on_warm_cpu (fun m ->
         let addr = Syscall.mmap m ~cpu:0 ~pages:2 () in
         Access.write m ~cpu:0 ~vaddr:addr;
         Tlb.flush_all (Cpu.tlb (Machine.cpu m 0));
         fill := words_of (fun () -> Access.read m ~cpu:0 ~vaddr:addr);
         Access.read m ~cpu:0 ~vaddr:addr;
         hit := words_of (fun () -> Access.read m ~cpu:0 ~vaddr:addr);
         0)
      : int);
  check int_t "fill: minor words" 0 !fill;
  check int_t "hit: minor words" 0 !hit

(* --- Ept / Nested --- *)

(* The EPT's GPA→HPA half of a nested walk, seen through a guest 4 KiB
   page at [vpn 7] whose guest frame is [gfn]. *)
let host_of ept ~gfn =
  let guest = Page_table.create () in
  Page_table.map guest ~vpn:7 ~size:Tlb.Four_k (Pte.user_data ~pfn:gfn);
  Option.map
    (fun r -> (r.Ept.Nested.hfn, r.Ept.Nested.host_size))
    (Ept.Nested.translate ~guest ~ept ~vpn:7)

let test_ept_translate () =
  let ept = Ept.create () in
  Ept.map ept ~gfn:100 ~size:Tlb.Four_k ~hfn:900;
  check bool_t "mapped" true (host_of ept ~gfn:100 = Some (900, Tlb.Four_k));
  check bool_t "unmapped" true (host_of ept ~gfn:101 = None)

let test_ept_huge_offset () =
  let ept = Ept.create () in
  Ept.map ept ~gfn:1024 ~size:Tlb.Two_m ~hfn:4096;
  match host_of ept ~gfn:(1024 + 37) with
  | Some (hfn, size) ->
      check int_t "offset preserved" (4096 + 37) hfn;
      check bool_t "2m" true (size = Tlb.Two_m)
  | None -> Alcotest.fail "expected translation"

let test_nested_fracture_detection () =
  let guest = Page_table.create () in
  Page_table.map guest ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:2048);
  let ept = Ept.create () in
  for i = 0 to 511 do
    Ept.map ept ~gfn:(2048 + i) ~size:Tlb.Four_k ~hfn:(9000 + i)
  done;
  match Ept.Nested.translate ~guest ~ept ~vpn:(1024 + 5) with
  | Some r ->
      check bool_t "fractured" true r.Ept.Nested.fractured;
      check bool_t "effective 4k" true (r.Ept.Nested.effective_size = Tlb.Four_k);
      check int_t "hfn" 9005 r.Ept.Nested.hfn
  | None -> Alcotest.fail "expected nested translation"

let test_nested_2m_on_2m_not_fractured () =
  let guest = Page_table.create () in
  Page_table.map guest ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:2048);
  let ept = Ept.create () in
  Ept.map ept ~gfn:2048 ~size:Tlb.Two_m ~hfn:8192;
  match Ept.Nested.translate ~guest ~ept ~vpn:1024 with
  | Some r ->
      check bool_t "not fractured" false r.Ept.Nested.fractured;
      check bool_t "effective 2m" true (r.Ept.Nested.effective_size = Tlb.Two_m)
  | None -> Alcotest.fail "expected nested translation"

let test_nested_mmu_access_counts () =
  let guest = Page_table.create () in
  for i = 0 to 9 do
    Page_table.map guest ~vpn:(512 + i) ~size:Tlb.Four_k (Pte.user_data ~pfn:(100 + i))
  done;
  let mmu = Nested_mmu.create ~guest ~pcid:1 () in
  let hits, misses = Nested_mmu.touch_range mmu ~start_vpn:512 ~pages:10 in
  check int_t "cold misses" 10 misses;
  check int_t "no hits yet" 0 hits;
  let hits2, misses2 = Nested_mmu.touch_range mmu ~start_vpn:512 ~pages:10 in
  check int_t "warm hits" 10 hits2;
  check int_t "no new misses" 0 misses2

let test_nested_mmu_guest_fault () =
  let guest = Page_table.create () in
  let mmu = Nested_mmu.create ~guest ~pcid:1 () in
  Alcotest.check_raises "unmapped" (Nested_mmu.Guest_fault 7) (fun () ->
      ignore (Nested_mmu.touch_range mmu ~start_vpn:7 ~pages:1))

let test_nested_mmu_fracture_flag_set () =
  let guest = Page_table.create () in
  Page_table.map guest ~vpn:1024 ~size:Tlb.Two_m (Pte.user_data ~pfn:2048);
  let ept = Ept.create () in
  for i = 0 to 511 do
    Ept.map ept ~gfn:(2048 + i) ~size:Tlb.Four_k ~hfn:(9000 + i)
  done;
  let mmu = Nested_mmu.create ~guest ~ept ~pcid:1 () in
  ignore (Nested_mmu.touch_range mmu ~start_vpn:1024 ~pages:1);
  check bool_t "flag armed" true (Tlb.fracture_flag (Nested_mmu.tlb mmu));
  (* A selective flush of anything now wipes the TLB. *)
  ignore (Nested_mmu.touch_range mmu ~start_vpn:1025 ~pages:1);
  Nested_mmu.invlpg mmu ~vpn:999_999;
  check int_t "everything flushed" 0 (List.length (Tlb.entries (Nested_mmu.tlb mmu)))

let suite =
  [
    Alcotest.test_case "addr: conversions" `Quick test_addr_conversions;
    Alcotest.test_case "addr: hugepages" `Quick test_addr_huge;
    Alcotest.test_case "pte: cow transitions" `Quick test_pte_transitions;
    Alcotest.test_case "pte: writeback transitions" `Quick test_pte_clean_protect;
    Alcotest.test_case "frames: alloc/free" `Quick test_frames_alloc_free;
    Alcotest.test_case "frames: recycling bumps generation" `Quick test_frames_recycling_and_generation;
    Alcotest.test_case "frames: double free rejected" `Quick test_frames_double_free_rejected;
    Alcotest.test_case "frames: hugepage alignment" `Quick test_frames_huge_alignment;
    Alcotest.test_case "frames: exhaustion" `Quick test_frames_exhaustion;
    Alcotest.test_case "pt: map and walk" `Quick test_pt_map_walk;
    Alcotest.test_case "pt: hugepages" `Quick test_pt_hugepage;
    Alcotest.test_case "frames: same as eager model, 64 frames" `Quick
      (test_frames_growable_vs_eager ~frames:64);
    Alcotest.test_case "frames: same as eager model, 4096 frames" `Quick
      (test_frames_growable_vs_eager ~frames:4096);
    Alcotest.test_case "frames: same as eager model, 262144 frames" `Quick
      (test_frames_growable_vs_eager ~frames:262144);
    Alcotest.test_case "pt: double map rejected" `Quick test_pt_double_map_rejected;
    Alcotest.test_case "pt: unmap" `Quick test_pt_unmap;
    Alcotest.test_case "pt: unmap frees tables" `Quick test_pt_unmap_frees_tables;
    Alcotest.test_case "pt: range unmap spans hugepage" `Quick test_pt_unmap_range_spans_hugepage;
    Alcotest.test_case "pt: update" `Quick test_pt_update;
    Alcotest.test_case "pt: version bumps" `Quick test_pt_version_bumps;
    Alcotest.test_case "pt: iter reconstructs vpns" `Quick test_pt_iter;
    Alcotest.test_case "pt: random ops vs model, tables recycled" `Quick test_pt_vs_model;
    Alcotest.test_case "pt: recycled tables, no major words" `Quick
      test_pt_recycled_tables_no_major_words;
    Alcotest.test_case "pt: chunk edges at every level" `Quick test_pt_chunk_edges;
    Alcotest.test_case "pt: first map, minor words only" `Quick test_pt_first_map_words;
    Alcotest.test_case "ept: translate" `Quick test_ept_translate;
    Alcotest.test_case "ept: hugepage offsets" `Quick test_ept_huge_offset;
    Alcotest.test_case "nested: fracture detection" `Quick test_nested_fracture_detection;
    Alcotest.test_case "nested: 2m-on-2m not fractured" `Quick test_nested_2m_on_2m_not_fractured;
    Alcotest.test_case "nested mmu: hit/miss counting" `Quick test_nested_mmu_access_counts;
    Alcotest.test_case "nested mmu: guest fault" `Quick test_nested_mmu_guest_fault;
    Alcotest.test_case "nested mmu: fracture flag" `Quick test_nested_mmu_fracture_flag_set;
    Alcotest.test_case "pte: x86-64 bit layout" `Quick test_pte_bits;
    Alcotest.test_case "pt: hot calls allocate nothing" `Quick
      test_pt_hot_calls_allocate_nothing;
    Alcotest.test_case "fault: anonymous demand fault, minor words" `Quick
      test_demand_fault_words;
    Alcotest.test_case "syscall: warm 1-page madvise, minor words" `Quick test_madvise_words;
    Alcotest.test_case "syscall: warm 8-page munmap, minor words" `Quick test_munmap_words;
    Alcotest.test_case "fault: warm CoW write, minor words" `Quick test_cow_write_words;
    Alcotest.test_case "pt: a table freed and rebuilt, 0 minor words" `Quick
      test_pt_table_freed_and_rebuilt_words;
    Alcotest.test_case "frames: warm free + alloc, minor words" `Quick test_frames_warm_words;
    Alcotest.test_case "access: warm TLB fill and hit, minor words" `Quick
      test_access_tlb_words;
  ]
