(* tlblint self-tests (DESIGN.md §11): committed fixture modules per rule —
   the bad twin fires at known lines, the good twin is silent — plus rule
   toggling, allowlist scoping, and the tier-1 guarantee that the real tree
   lints clean under tools/tlblint/allow.sexp. *)

let fixture_dir = "../tools/tlblint/fixtures/.lint_fixtures.objs/byte"
let fixture_cmt name = Filename.concat fixture_dir (name ^ ".cmt")

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

(* R5 reads uses from every .cmt beside the scanned one, here every
   fixture: [Fix_r5_good.used_elsewhere] has its user in fix_r5_bad. Copied
   into a directory of its own, away from that user, it is dead too. *)
let test_r5 () =
  test_pair ~bad:"fix_r5_bad" ~good:"fix_r5_good"
    ~expected:[ (3, "R5"); (4, "R5"); (5, "R5") ]
    ();
  let alone = "r5_alone" in
  if not (Sys.file_exists alone) then Sys.mkdir alone 0o755;
  List.iter
    (fun ext ->
      let src = fixture_cmt "fix_r5_good" ^ ext in
      let ic = open_in_bin src in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat alone ("fix_r5_good.cmt" ^ ext)) in
      output_string oc data;
      close_out oc)
    [ ""; "i" ];
  let findings = Lint.run ~rules:[ Lint.R5 ] [ Filename.concat alone "fix_r5_good.cmt" ] in
  List.iter (fun ext -> Sys.remove (Filename.concat alone ("fix_r5_good.cmt" ^ ext))) [ ""; "i" ];
  Sys.rmdir alone;
  check_findings "fix_r5_good without its user" [ (4, "R5") ] findings

(* --rules style toggling: a disabled rule reports nothing. *)
let test_toggle () =
  check_findings "R1 disabled" []
    (Lint.run ~rules:[ Lint.R2; Lint.R3; Lint.R4; Lint.R5 ] [ fixture_cmt "fix_r1_bad" ]);
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
   allowlist.  The cmt-count floor guards against silently scanning nothing.
   The scan is the CLI's: R5 counts the uses in every tree under the
   scanned paths' parent, the build root. *)
let test_tree_clean () =
  let paths = List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ] in
  Alcotest.(check bool) "scanned a real module set" true
    (List.length (Lint.find_cmts paths) > 30);
  let allow = Lint.load_allowlist "../tools/tlblint/allow.sexp" in
  let findings = Lint.run ~allow paths in
  List.iter (fun f -> Format.eprintf "%a@." Lint.pp_finding f) findings;
  Alcotest.(check int) "tree is tlblint-clean" 0 (List.length findings)

let suite =
  [
    Alcotest.test_case "R1 poly-compare fixtures" `Quick test_r1;
    Alcotest.test_case "R2 unordered-iteration fixtures" `Quick test_r2;
    Alcotest.test_case "R3 nondeterminism fixtures" `Quick test_r3;
    Alcotest.test_case "R4 unsafe-array fixtures" `Quick test_r4;
    Alcotest.test_case "R5 dead-export fixtures" `Quick test_r5;
    Alcotest.test_case "rule toggling" `Quick test_toggle;
    Alcotest.test_case "allowlist scoping" `Quick test_allowlist;
    Alcotest.test_case "real tree lints clean" `Quick test_tree_clean;
  ]

let () = Alcotest.run "tlblint" [ ("lint", suite) ]
