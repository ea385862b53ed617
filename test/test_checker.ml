(* Unit tests for the Checker's classification results, the windows index
   and the violation-recording cap. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let entry ~vpn ~pfn =
  { Tlb.vpn; pfn; pcid = 1; size = Tlb.Four_k; global = false; writable = true;
    fractured = false; ck_ver = -1 }

(* An empty page table: the walk misses, so any hit through it is stale. *)
let stale_hit ?(now = 0) ?(cpu = 0) ?(mm_id = 1) ?(vpn = 10) c =
  Checker.check_hit c ~now ~cpu ~mm_id ~vpn ~write:false
    ~entry:(entry ~vpn ~pfn:5) ~pt:(Page_table.create ())

(* --- classification results --- *)

let test_clean_result () =
  let c = Checker.create () in
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:5);
  let e = entry ~vpn:10 ~pfn:5 in
  let r = Checker.check_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:true ~entry:e ~pt in
  check bool_t "clean" true (r = `Clean);
  check int_t "no benign races" 0 (Checker.benign_races c);
  (* The clean verdict is stamped into the entry; a re-check against the
     unchanged table takes the walk-free path and agrees. *)
  check bool_t "stamped" true (e.Tlb.ck_ver >= 0);
  let r2 = Checker.check_hit c ~now:1 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:true ~entry:e ~pt in
  check bool_t "clean via stamp" true (r2 = `Clean);
  (* Any mutation bumps the version: the stamp stops matching and the next
     check walks again, seeing the remap. *)
  ignore (Page_table.unmap pt ~vpn:10 () : bool);
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:99);
  (match Checker.check_hit c ~now:2 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:false ~entry:e ~pt with
  | `Violation reason ->
      check Alcotest.string "restale" "page remapped to a different frame" reason
  | `Clean | `Benign _ -> Alcotest.fail "stamp must not survive a version bump")

let test_violation_result_carries_reason () =
  let c = Checker.create () in
  (match stale_hit c with
  | `Violation reason ->
      check Alcotest.string "reason" "translation removed from page table" reason
  | `Clean | `Benign _ -> Alcotest.fail "expected a violation");
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.user_data ~pfn:99);
  match
    Checker.check_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:false
      ~entry:(entry ~vpn:10 ~pfn:5) ~pt
  with
  | `Violation reason ->
      check Alcotest.string "remap reason" "page remapped to a different frame" reason
  | `Clean | `Benign _ -> Alcotest.fail "expected a remap violation"

(* A writable entry over a write-protected PTE is clean for reads but must
   not be stamped: a later write through it at the same page-table version
   still has to be flagged. *)
let test_write_protected_read_not_stamped () =
  let c = Checker.create () in
  let pt = Page_table.create () in
  Page_table.map pt ~vpn:10 ~size:Tlb.Four_k (Pte.write_protect (Pte.user_data ~pfn:5));
  let e = entry ~vpn:10 ~pfn:5 in
  (match Checker.check_hit c ~now:0 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:false ~entry:e ~pt with
  | `Clean -> ()
  | `Benign _ | `Violation _ -> Alcotest.fail "read through it is clean");
  check bool_t "not stamped" true (e.Tlb.ck_ver = -1);
  match Checker.check_hit c ~now:1 ~cpu:0 ~mm_id:1 ~vpn:10 ~write:true ~entry:e ~pt with
  | `Violation reason ->
      check Alcotest.string "write reason" "write through a since-write-protected mapping"
        reason
  | `Clean | `Benign _ -> Alcotest.fail "write must be flagged"

let test_benign_inside_window () =
  let c = Checker.create () in
  let info = Flush_info.ranged ~mm_id:1 ~start_vpn:10 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false in
  let token = Checker.begin_invalidation c info in
  (match stale_hit c with
  | `Benign _ -> ()
  | `Clean -> Alcotest.fail "stale hit reported clean"
  | `Violation _ -> Alcotest.fail "in-flight hit must be benign");
  check int_t "benign recorded" 1 (Checker.benign_races c);
  check int_t "no violation" 0 (Checker.violation_count c);
  Checker.end_invalidation c token;
  (match stale_hit c ~now:1 with
  | `Violation _ -> ()
  | `Clean | `Benign _ -> Alcotest.fail "closed window must not excuse");
  check int_t "violation after close" 1 (Checker.violation_count c)

let test_window_must_cover_vpn_and_mm () =
  let c = Checker.create () in
  let info = Flush_info.ranged ~mm_id:1 ~start_vpn:100 ~pages:4 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false in
  let token = Checker.begin_invalidation c info in
  (* Same mm, vpn outside the flushed range: no excuse. *)
  (match stale_hit c ~vpn:10 with
  | `Violation _ -> ()
  | `Clean | `Benign _ -> Alcotest.fail "uncovered vpn must violate");
  (* Covered vpn but a different address space: no excuse. *)
  (match stale_hit c ~mm_id:2 ~vpn:101 with
  | `Violation _ -> ()
  | `Clean | `Benign _ -> Alcotest.fail "other mm must violate");
  (* Covered vpn in the right mm: benign. *)
  (match stale_hit c ~vpn:101 with
  | `Benign _ -> ()
  | `Clean | `Violation _ -> Alcotest.fail "covered vpn must be benign");
  Checker.end_invalidation c token

let test_covered_matches_classification () =
  let c = Checker.create () in
  check bool_t "nothing covered" false (Checker.covered c ~mm_id:1 ~vpn:10);
  let t1 = Checker.begin_invalidation c
      (Flush_info.ranged ~mm_id:1 ~start_vpn:10 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false) in
  let t2 = Checker.begin_invalidation c (Flush_info.full ~mm_id:2 ~new_tlb_gen:3 ~freed_tables:false) in
  check bool_t "ranged covers" true (Checker.covered c ~mm_id:1 ~vpn:10);
  check bool_t "range bound" false (Checker.covered c ~mm_id:1 ~vpn:11);
  check bool_t "full covers any vpn" true (Checker.covered c ~mm_id:2 ~vpn:123456);
  check bool_t "mm isolation" false (Checker.covered c ~mm_id:3 ~vpn:10);
  Checker.end_invalidation c t1;
  check bool_t "closed window uncovers" false (Checker.covered c ~mm_id:1 ~vpn:10);
  check bool_t "other window survives" true (Checker.covered c ~mm_id:2 ~vpn:0);
  Checker.end_invalidation c t2

(* --- open-windows bookkeeping --- *)

let test_open_windows_bookkeeping () =
  let c = Checker.create () in
  check int_t "none open" 0 (Checker.open_windows c);
  let tokens =
    List.init 3 (fun i ->
        Checker.begin_invalidation c
          (Flush_info.ranged ~mm_id:(i + 1) ~start_vpn:0 ~pages:1 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false))
  in
  check int_t "three open" 3 (Checker.open_windows c);
  check bool_t "distinct tokens" true
    (List.length (List.sort_uniq compare (List.map Checker.token_id tokens)) = 3);
  List.iter (Checker.end_invalidation c) tokens;
  check int_t "all closed" 0 (Checker.open_windows c);
  (* Double-close is idempotent. *)
  List.iter (Checker.end_invalidation c) tokens;
  check int_t "still closed" 0 (Checker.open_windows c)

(* --- recording cap --- *)

let test_max_recorded_cap () =
  let c = Checker.create ~max_recorded:5 () in
  for vpn = 0 to 99 do
    ignore (stale_hit c ~vpn : Checker.result)
  done;
  check int_t "count keeps going" 100 (Checker.violation_count c);
  check int_t "list capped" 5 (List.length (Checker.violations c));
  (* The retained records are the earliest ones. *)
  let vpns = List.map (fun v -> v.Checker.v_vpn) (Checker.violations c) in
  check (Alcotest.list int_t) "earliest retained" [ 0; 1; 2; 3; 4 ]
    (List.sort compare vpns)

let test_default_cap_is_large () =
  check bool_t "default cap sane" true (Checker.max_recorded (Checker.create ()) >= 100)

(* --- window lifecycle --- *)

(* Closing a window must remove it from the windows table — an entry left
   behind would keep excusing stale hits (or leak) long after the flush
   completed. The open-window count must track opens and closes through
   any interleaving. *)
let test_window_lifecycle_tables_in_sync () =
  let c = Checker.create () in
  let in_sync what n = check int_t what n (Checker.open_windows c) in
  in_sync "empty" 0;
  (* Several windows on the same mm, plus one on another mm. *)
  let w1 = Checker.begin_invalidation c
      (Flush_info.ranged ~mm_id:1 ~start_vpn:0 ~pages:4 ~new_tlb_gen:2 ~stride:Tlb.Four_k ~freed_tables:false) in
  let w2 = Checker.begin_invalidation c
      (Flush_info.ranged ~mm_id:1 ~start_vpn:100 ~pages:4 ~new_tlb_gen:3 ~stride:Tlb.Four_k ~freed_tables:false) in
  let w3 = Checker.begin_invalidation c (Flush_info.full ~mm_id:2 ~new_tlb_gen:2 ~freed_tables:false) in
  in_sync "three open" 3;
  (* Close out of order; coverage must shrink exactly with the closes. *)
  Checker.end_invalidation c w2;
  in_sync "two open" 2;
  check bool_t "w1 range still covered" true (Checker.covered c ~mm_id:1 ~vpn:0);
  check bool_t "w2 range uncovered" false (Checker.covered c ~mm_id:1 ~vpn:100);
  Checker.end_invalidation c w1;
  in_sync "one open" 1;
  check bool_t "mm1 fully uncovered" false (Checker.covered c ~mm_id:1 ~vpn:0);
  check bool_t "mm2 still covered" true (Checker.covered c ~mm_id:2 ~vpn:7);
  Checker.end_invalidation c w3;
  in_sync "all closed" 0;
  (* Double-close must not go negative or resurrect anything. *)
  Checker.end_invalidation c w1;
  Checker.end_invalidation c w3;
  in_sync "idempotent close" 0

(* Accounting at the recording cap: the total keeps counting and the
   recorded list stays exactly at the cap. *)
let test_cap_accounting_consistency () =
  let c = Checker.create ~max_recorded:3 () in
  check int_t "cap accessor" 3 (Checker.max_recorded c);
  for vpn = 0 to 9 do
    ignore (stale_hit c ~vpn : Checker.result)
  done;
  check int_t "all counted" 10 (Checker.violation_count c);
  check int_t "recorded at cap" 3 (List.length (Checker.violations c))

let suite =
  [
    Alcotest.test_case "result: clean" `Quick test_clean_result;
    Alcotest.test_case "result: violation reasons" `Quick test_violation_result_carries_reason;
    Alcotest.test_case "result: write-protected read not stamped" `Quick
      test_write_protected_read_not_stamped;
    Alcotest.test_case "result: benign inside window" `Quick test_benign_inside_window;
    Alcotest.test_case "windows: cover vpn and mm" `Quick test_window_must_cover_vpn_and_mm;
    Alcotest.test_case "windows: covered query" `Quick test_covered_matches_classification;
    Alcotest.test_case "windows: open count" `Quick test_open_windows_bookkeeping;
    Alcotest.test_case "cap: max_recorded" `Quick test_max_recorded_cap;
    Alcotest.test_case "cap: default" `Quick test_default_cap_is_large;
    Alcotest.test_case "lifecycle: windows and by_mm in sync" `Quick
      test_window_lifecycle_tables_in_sync;
    Alcotest.test_case "lifecycle: cap accounting" `Quick
      test_cap_accounting_consistency;
  ]
