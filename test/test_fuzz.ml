(* Tests for the differential fuzzer: generator determinism, option-combo
   and protocol-backend coverage, oracle equivalence over a fixed seed
   range, the injected-bug end-to-end path (catch, shrink, replay) under
   every backend, and execution determinism. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_gen_deterministic () =
  let a = Fuzz.gen_program 1234 and b = Fuzz.gen_program 1234 in
  check bool_t "same seed, same program" true (a = b);
  let c = Fuzz.gen_program 1235 in
  check bool_t "different seed, different program" true (a <> c)

let test_combo_coverage () =
  (* 64 consecutive seeds must reach all 64 optimization subsets. *)
  let combos = List.init 64 (fun s -> (Fuzz.gen_program s).Fuzz.p_combo) in
  check int_t "all combos reached" 64 (List.length (List.sort_uniq compare combos))

(* The protocol axis uses seed bits disjoint from the 6 combo bits: the
   three non-oracle backends cycle every 64 seeds, and seeds 64 apart
   differ only in backend (same combo — the generator consumes no extra
   RNG draws for the protocol choice). *)
let test_protocol_axis_coverage () =
  let programs = List.init 192 Fuzz.gen_program in
  let count p =
    List.length (List.filter (fun pr -> pr.Fuzz.p_protocol = p) programs)
  in
  check int_t "64 paper seeds" 64 (count (Opts.Paper Opts.paper_baseline));
  check int_t "64 sync-broadcast seeds" 64 (count Opts.Sync_broadcast);
  check int_t "64 queue-spin seeds" 64 (count Opts.Queue_spin);
  check int_t "oracle is never the subject" 0 (count Opts.Oracle);
  check bool_t "seeds 0..63 run the paper backend" true
    ((Fuzz.gen_program 5).Fuzz.p_protocol = Opts.Paper Opts.paper_baseline);
  check bool_t "seeds 64..127 run sync-broadcast" true
    ((Fuzz.gen_program 69).Fuzz.p_protocol = Opts.Sync_broadcast);
  check bool_t "seeds 128..191 run queue-spin" true
    ((Fuzz.gen_program 133).Fuzz.p_protocol = Opts.Queue_spin);
  check int_t "combo bits independent of the protocol bits"
    (Fuzz.gen_program 5).Fuzz.p_combo
    (Fuzz.gen_program 69).Fuzz.p_combo

let test_execute_deterministic () =
  let p = Fuzz.gen_program 7 in
  let opts () = Fuzz.program_opts p in
  let a = Fuzz.execute ~opts:(opts ()) p in
  let b = Fuzz.execute ~opts:(opts ()) p in
  check bool_t "same observations" true (a.Fuzz.xr_obs = b.Fuzz.xr_obs);
  check bool_t "same final state" true (a.Fuzz.xr_final = b.Fuzz.xr_final);
  check bool_t "same crash status" true (a.Fuzz.xr_crash = b.Fuzz.xr_crash)

(* The core differential property on a fixed seed range: the optimized
   protocol must be indistinguishable from the conservative oracle. *)
let test_fixed_seeds_match_oracle () =
  for seed = 0 to 19 do
    match Fuzz.check_seed ~shrink:false seed with
    | None -> ()
    | Some f ->
        Alcotest.failf "seed %d diverged from the oracle: %s" seed
          (String.concat "; " f.Fuzz.f_reasons)
  done

(* End-to-end true-positive check: with the deferred-flush bug injected the
   fuzzer must catch a divergence in a small seed range, ddmin must
   produce a still-failing program no longer than the original, and the
   failure must carry a usable replay command. *)
let test_inject_bug_caught_and_shrunk () =
  let rec find seed =
    if seed >= 64 then Alcotest.fail "injected bug never caught in seeds 0..63"
    else
      match Fuzz.check_seed ~inject_bug:true ~shrink:true seed with
      | Some f -> f
      | None -> find (seed + 1)
  in
  let f = find 0 in
  check bool_t "reasons recorded" true (f.Fuzz.f_reasons <> []);
  (match f.Fuzz.f_shrunk with
  | None -> Alcotest.fail "failure was not shrunk"
  | Some ops ->
      check bool_t "shrunk no longer than original" true
        (List.length ops <= List.length f.Fuzz.f_program.Fuzz.p_ops);
      check bool_t "shrunk program still fails" true
        (Fuzz.run_program { f.Fuzz.f_program with Fuzz.p_ops = ops } <> []));
  let cmd = Format.asprintf "%a" Fuzz.pp_failure f in
  check bool_t "replay names the seed" true
    (contains cmd (Printf.sprintf "--seed %d" f.Fuzz.f_seed));
  check bool_t "replay names the injection" true (contains cmd "--inject-bug")

(* Committed regression seeds: the first injected-bug divergence found in
   each backend's seed window (56 paper, 67 sync-broadcast, 146
   queue-spin), kept as fixed true-positives so oracle, generator or
   backend changes that blind the fuzzer fail loudly. The injected bug
   lives in the shared deferred-flush path, so every backend must expose
   it. *)
let regression_seed label seed () =
  match Fuzz.check_seed ~inject_bug:true ~shrink:false seed with
  | Some f ->
      check bool_t
        (Printf.sprintf "%s: expected backend under test" label)
        true
        (Opts.protocol_label f.Fuzz.f_program.Fuzz.p_protocol = label);
      check bool_t "still caught" true (f.Fuzz.f_reasons <> [])
  | None ->
      Alcotest.failf "seed %d no longer catches the injected bug under %s" seed label

let test_regression_seed_56 = regression_seed "paper" 56
let test_regression_seed_67 = regression_seed "sync-broadcast" 67
let test_regression_seed_146 = regression_seed "queue-spin" 146

let test_run_seeds_report () =
  let r = Fuzz.run_seeds ~seed_base:0 ~count:8 ~jobs:2 ~shrink:false () in
  check int_t "all seeds tested" 8 r.Fuzz.tested;
  check int_t "no failures" 0 (List.length r.Fuzz.failures)

let suite =
  [
    Alcotest.test_case "gen: deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "gen: combo coverage" `Quick test_combo_coverage;
    Alcotest.test_case "gen: protocol axis coverage" `Quick test_protocol_axis_coverage;
    Alcotest.test_case "exec: deterministic" `Quick test_execute_deterministic;
    Alcotest.test_case "diff: fixed seeds match oracle" `Quick
      test_fixed_seeds_match_oracle;
    Alcotest.test_case "inject: caught and shrunk" `Quick
      test_inject_bug_caught_and_shrunk;
    Alcotest.test_case "inject: regression seed 56 (paper)" `Quick
      test_regression_seed_56;
    Alcotest.test_case "inject: regression seed 67 (sync-broadcast)" `Quick
      test_regression_seed_67;
    Alcotest.test_case "inject: regression seed 146 (queue-spin)" `Quick
      test_regression_seed_146;
    Alcotest.test_case "sharded run_seeds" `Quick test_run_seeds_report;
  ]
