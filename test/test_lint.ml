(* tlblint self-tests (DESIGN.md §11): committed fixture modules per rule —
   the bad twin fires at known lines, the good twin is silent — plus rule
   toggling, allowlist scoping, and the tier-1 guarantee that the real tree
   lints clean under tools/tlblint/allow.sexp. *)

let fixture_cmt name =
  Filename.concat "../tools/tlblint/fixtures/.lint_fixtures.objs/byte" (name ^ ".cmt")

let lines_and_rules findings =
  List.map (fun f -> (f.Lint.f_line, Lint.rule_name f.Lint.f_rule)) findings

let check_findings what expected findings =
  Alcotest.(check (list (pair int string))) what expected (lines_and_rules findings)

let test_pair ~bad ~good ~expected () =
  check_findings (bad ^ " fires") expected (Lint.run [ fixture_cmt bad ]);
  check_findings (good ^ " is silent") [] (Lint.run [ fixture_cmt good ])

let test_r1 =
  test_pair ~bad:"fix_r1_bad" ~good:"fix_r1_good"
    ~expected:
      [ (3, "R1"); (4, "R1"); (5, "R1"); (6, "R1"); (7, "R1"); (8, "R1"); (9, "R1") ]

let test_r2 =
  test_pair ~bad:"fix_r2_bad" ~good:"fix_r2_good" ~expected:[ (3, "R2"); (5, "R2") ]

let test_r3 =
  test_pair ~bad:"fix_r3_bad" ~good:"fix_r3_good"
    ~expected:[ (3, "R3"); (5, "R3"); (7, "R3") ]

let test_r4 =
  test_pair ~bad:"fix_r4_bad" ~good:"fix_r4_good"
    ~expected:[ (4, "R4"); (6, "R4"); (8, "R4") ]

(* --rules style toggling: a disabled rule reports nothing. *)
let test_toggle () =
  check_findings "R1 disabled" []
    (Lint.run ~rules:[ Lint.R2; Lint.R3; Lint.R4 ] [ fixture_cmt "fix_r1_bad" ]);
  check_findings "only R4 enabled"
    [ (4, "R4"); (6, "R4"); (8, "R4") ]
    (Lint.run ~rules:[ Lint.R4 ] [ fixture_cmt "fix_r4_bad" ])

(* allow.sexp semantics: module scope kills the whole module's findings for
   that rule, (line n) scope kills exactly one site. *)
let test_allowlist () =
  let path = "tlblint_test_allow.sexp" in
  let oc = open_out path in
  output_string oc
    "(allow R1 (module Fix_r1_bad) \"fixture grant\")\n\
     (allow R2 (file tools/tlblint/fixtures/fix_r2_bad.ml) (line 3) \"fixture grant\")\n";
  close_out oc;
  let allow = Lint.load_allowlist path in
  Sys.remove path;
  check_findings "module-scoped allow" [] (Lint.run ~allow [ fixture_cmt "fix_r1_bad" ]);
  check_findings "line-scoped allow"
    [ (5, "R2") ]
    (Lint.run ~allow [ fixture_cmt "fix_r2_bad" ])

(* Tier-1: the real tree has zero unsuppressed findings under the shipped
   allowlist.  The cmt-count floor guards against silently scanning nothing. *)
let test_tree_clean () =
  let dirs = List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ] in
  let cmts = Lint.find_cmts dirs in
  Alcotest.(check bool) "scanned a real module set" true (List.length cmts > 30);
  let allow = Lint.load_allowlist "../tools/tlblint/allow.sexp" in
  let findings = Lint.run ~allow cmts in
  List.iter (fun f -> Format.eprintf "%a@." Lint.pp_finding f) findings;
  Alcotest.(check int) "tree is tlblint-clean" 0 (List.length findings)

let suite =
  [
    Alcotest.test_case "R1 poly-compare fixtures" `Quick test_r1;
    Alcotest.test_case "R2 unordered-iteration fixtures" `Quick test_r2;
    Alcotest.test_case "R3 nondeterminism fixtures" `Quick test_r3;
    Alcotest.test_case "R4 unsafe-array fixtures" `Quick test_r4;
    Alcotest.test_case "rule toggling" `Quick test_toggle;
    Alcotest.test_case "allowlist scoping" `Quick test_allowlist;
    Alcotest.test_case "real tree lints clean" `Quick test_tree_clean;
  ]

let () = Alcotest.run "tlblint" [ ("lint", suite) ]
