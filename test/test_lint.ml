(* tlblint self-tests (DESIGN.md §11): committed fixture modules per rule —
   the bad twin fires at known lines, the good twin is silent — plus rule
   toggling, allowlist scoping, and the tier-1 guarantee that the real tree
   lints clean under tools/tlblint/allow.sexp. *)

let fixture_dir = "../tools/tlblint/fixtures/.lint_fixtures.objs/byte"
let fixture_cmt name = Filename.concat fixture_dir (name ^ ".cmt")

let lines_and_rules findings =
  List.map (fun f -> (f.Lint.f_line, Lint.rule_name f.Lint.f_rule)) findings

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

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

(* Copy fixture [name]'s .cmt and .cmti into directory [dir] (made if
   missing); returns a function that removes the copies again. *)
let copy_fixture name ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let copies =
    List.map
      (fun ext -> (fixture_cmt name ^ ext, Filename.concat dir (name ^ ".cmt" ^ ext)))
      [ ""; "i" ]
  in
  List.iter
    (fun (src, dst) ->
      let data = In_channel.with_open_bin src In_channel.input_all in
      Out_channel.with_open_bin dst (fun oc -> output_string oc data))
    copies;
  fun () -> List.iter (fun (_, dst) -> Sys.remove dst) copies

(* R5 reads uses from every .cmt beside the scanned one, here every
   fixture: [Fix_r5_good.used_elsewhere] has its user in fix_r5_bad. Copied
   into a directory of its own, away from that user, it is dead too. *)
let test_r5 () =
  test_pair ~bad:"fix_r5_bad" ~good:"fix_r5_good"
    ~expected:[ (3, "R5"); (4, "R5"); (5, "R5") ]
    ();
  let alone = "r5_alone" in
  let remove = copy_fixture "fix_r5_good" ~dir:alone in
  let findings = Lint.run ~rules:[ Lint.R5 ] [ Filename.concat alone "fix_r5_good.cmt" ] in
  remove ();
  Sys.rmdir alone;
  check_findings "fix_r5_good without its user" [ (4, "R5") ] findings

(* A use from a unit under a [test/] directory keeps no export alive. Laid
   out like a build tree, with fix_r5_good in [lib/] and its one user,
   fix_r5_bad, in [test/], scanning [lib/] flags [used_elsewhere]; with
   the user in [bin/] instead it is silent. The reasoned grant on
   [granted] holds either way, and a grant without a reason is a finding
   wherever its unit lives. *)
let test_r5_test_uses_do_not_count () =
  let root = "r5_tree" in
  let dir sub = Filename.concat root sub in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let remove_good = copy_fixture "fix_r5_good" ~dir:(dir "lib") in
  let scan path = Lint.run ~rules:[ Lint.R5 ] [ dir path ] in
  let with_user_in sub f =
    let remove = copy_fixture "fix_r5_bad" ~dir:(dir sub) in
    Fun.protect
      ~finally:(fun () ->
        remove ();
        Sys.rmdir (dir sub))
      f
  in
  Fun.protect
    ~finally:(fun () ->
      remove_good ();
      Sys.rmdir (dir "lib");
      Sys.rmdir root)
    (fun () ->
      with_user_in "test" (fun () ->
          check_findings "only a test uses it" [ (4, "R5") ] (scan "lib");
          match List.filter (fun f -> f.Lint.f_line = 5) (scan "test") with
          | [ f ] ->
              Alcotest.(check bool) "a grant without a reason" true
                (contains f.Lint.f_msg "gives no reason")
          | fs -> Alcotest.failf "one finding at line 5, not %d" (List.length fs));
      with_user_in "bin" (fun () -> check_findings "a binary uses it" [] (scan "lib")))

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
    Alcotest.test_case "R5 ignores uses from test/" `Quick test_r5_test_uses_do_not_count;
    Alcotest.test_case "rule toggling" `Quick test_toggle;
    Alcotest.test_case "allowlist scoping" `Quick test_allowlist;
    Alcotest.test_case "real tree lints clean" `Quick test_tree_clean;
  ]

let () = Alcotest.run "tlblint" [ ("lint", suite) ]
