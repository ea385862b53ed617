(* The repository benchmark: five simulator workloads, end-to-end host
   metrics from untraced runs, per-layer metrics from a traced run.

     dune exec benchmark/main.exe -- [--workload W] [--seed S] [--seconds N]
                                     [--trace 0|1]
     dune exec benchmark/main.exe -- --smoke
     dune exec benchmark/main.exe -- --workload W [--seed S] --print-cells

   Without --workload every workload runs in its own child process. The
   last line of standard output is one JSON object: correct, attempted,
   failed and the metrics. Everything runs on one domain. See README.md. *)

let now = Unix.gettimeofday
let t_start = now ()
let default_seed = 1
let expected_dir = "benchmark/expected"
let trace_file = "benchmark-trace.json"

(* Set-up (cell generation + one warm-up pass) is repeated this often and
   reported as the median. *)
let setup_reps = 3

(* Timed passes stop here, even short of the fixed passes, so a run ends
   well inside three minutes on a slow host. *)
let max_run_s = 150.0

(* ----- small statistics ----- *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median a = percentile a 50.0
let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0.0 a

(* ----- cells ----- *)

type result = (Cells.outcome, string) Stdlib.result

let run_cell c : result =
  match Cells.run c with o -> Ok o | exception e -> Error (Printexc.to_string e)

let same (a : result) (b : result) =
  match (a, b) with
  | Ok x, Ok y ->
      String.equal x.Cells.line y.Cells.line && x.Cells.engine_ops = y.Cells.engine_ops
  | Error x, Error y -> String.equal x y
  | _ -> false

let cell_line c (r : result) =
  Cells.label c ^ " | " ^ match r with Ok o -> o.Cells.line | Error e -> "raised " ^ e

(* Attempted and failed cells, and why. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let attempt t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        prerr_endline msg
      end)
    fmt

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.equal l ""))

(* On the default seed the first pass must reproduce the committed
   expected file line for line. *)
let check_expected t (w : Cells.workload) ~seed cells (results : result array) =
  if seed = default_seed then begin
    let lines = Array.to_list (Array.map2 cell_line cells results) in
    let path = Filename.concat expected_dir (w.Cells.name ^ ".txt") in
    let expected = if Sys.file_exists path then read_lines path else [] in
    if List.length expected <> List.length lines then
      attempt t false "%s: %d cells but %d lines in %s" w.Cells.name (List.length lines)
        (List.length expected) path
    else
      List.iter2
        (fun got want ->
          attempt t (String.equal got want) "%s: expected\n  %s\ngot\n  %s" w.Cells.name
            want got)
        lines expected
  end

(* Every cell must succeed; with [reference], also equal it. *)
let check_pass t (w : Cells.workload) cells ?reference results =
  Array.iteri
    (fun i r ->
      let matches = match reference with None -> true | Some rf -> same rf.(i) r in
      attempt t (Result.is_ok r && matches) "%s: %s%s" w.Cells.name
        (cell_line cells.(i) r)
        (if matches then "" else " (differs from the same cell's first run)"))
    results

let guest_ops (results : result array) =
  Array.fold_left
    (fun acc r -> match r with Ok o -> acc + o.Cells.guest_ops | Error _ -> acc)
    0 results

(* Means of the simulated per-cell figures, over the cells that report
   them. *)
type sim = {
  mutable cps : float;
  mutable n_cps : int;
  mutable opm : float;
  mutable n_opm : int;
}

let sim () = { cps = 0.0; n_cps = 0; opm = 0.0; n_opm = 0 }

let add_sim s (results : result array) =
  Array.iter
    (function
      | Ok o ->
          Option.iter
            (fun x ->
              s.cps <- s.cps +. x;
              s.n_cps <- s.n_cps + 1)
            o.Cells.cycles_per_shootdown;
          Option.iter
            (fun x ->
              s.opm <- s.opm +. x;
              s.n_opm <- s.n_opm + 1)
            o.Cells.ops_per_mcycle
      | Error _ -> ())
    results

let sim_metrics s =
  List.filter_map Fun.id
    [
      (if s.n_cps = 0 then None
       else Some ("cycles_per_shootdown", s.cps /. float_of_int s.n_cps, "cycles"));
      (if s.n_opm = 0 then None
       else Some ("ops_per_mcycle", s.opm /. float_of_int s.n_opm, "ops/Mcycle"));
    ]

(* Passes every run times whatever the host speed: at least 100 timed
   cells, so the p90 has ten samples beyond it, and about [fixed_work_s]
   of nominal work. The deterministic metrics (allocation, peak heap,
   simulated figures, sim_digest) cover exactly these passes, so they
   depend on the seed alone. *)
let fixed_work_s = 8.0

let fixed_passes (w : Cells.workload) ~per_pass =
  max
    ((100 + per_pass - 1) / per_pass)
    (int_of_float (Float.ceil (fixed_work_s /. w.Cells.pass_s)))

(* ----- output ----- *)

(* All digits; a value that is not a number (a run with no passing
   cell) prints as null. *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
       metrics)

let print_result t metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "metric %s %.6g %s\n" name value unit)
    metrics;
  let correct = t.failed = 0 && t.attempted > 0 in
  Printf.printf "result correct=%b attempted=%d failed=%d\n" correct t.attempted t.failed;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    t.attempted t.failed (json_metrics metrics);
  exit (if correct then 0 else 1)

(* GC counters. OCaml 5.1's [Gc.quick_stat] updates minor words only at
   minor collections, so they come from [Gc.minor_words], which is exact. *)
type gc = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : float;
  major_collections : float;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    major_words = s.Gc.major_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = float_of_int s.Gc.minor_collections;
    major_collections = float_of_int s.Gc.major_collections;
  }

(* Words allocated between two samples: minor plus direct major. *)
let gc_words g1 g0 =
  g1.minor_words -. g0.minor_words +. (g1.major_words -. g0.major_words)
  -. (g1.promoted_words -. g0.promoted_words)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ----- untraced run: the end-to-end metrics ----- *)

(* Run one pass's cells, each timed alone, with reference chunks kept in
   pace. Returns the results, each cell's host seconds scaled by the
   pass's own chunks, the words the cells allocated, and the scale. *)
let timed_pass cells =
  let speed = Speed.create () in
  let times = Array.make (Array.length cells) 0.0 in
  let words = ref 0.0 in
  let results =
    Array.mapi
      (fun i c ->
        let g0 = gc_now () in
        let t0 = now () in
        let r = run_cell c in
        let d = now () -. t0 in
        words := !words +. gc_words (gc_now ()) g0;
        times.(i) <- d;
        Speed.pace speed d;
        r)
      cells
  in
  let scale = Speed.scale speed in
  (results, Array.map (fun d -> d *. scale) times, !words, scale)

let measure (w : Cells.workload) ~seed ~seconds =
  let t = tally () in
  let setups =
    Array.init setup_reps (fun _ ->
        let t0 = now () in
        let cells = w.Cells.cells ~seed ~pass:0 in
        let gen_s = now () -. t0 in
        let warm, times, _, _ = timed_pass cells in
        (gen_s +. sum Fun.id times, cells, warm))
  in
  let _, first, reference = setups.(0) in
  Array.iteri
    (fun i (_, _, warm) -> if i > 0 then check_pass t w first ~reference warm)
    setups;
  check_expected t w ~seed first reference;
  let fixed = fixed_passes w ~per_pass:(Array.length first) in
  let cell_s = ref [] and scales = ref [] and timed_s = ref 0.0 and timed_ops = ref 0 in
  let words = ref 0.0 and ops = ref 0 in
  let peak_mb = ref 0.0 in
  let sims = sim () in
  let lines = Buffer.create 4096 in
  let passes = ref 0 in
  let loop0 = now () in
  while (!passes < fixed || now () -. loop0 < seconds) && now () -. t_start < max_run_s do
    let p = !passes in
    let cells = if p = 0 then first else w.Cells.cells ~seed ~pass:p in
    let results, times, pass_words, scale = timed_pass cells in
    cell_s := Array.to_list times @ !cell_s;
    scales := scale :: !scales;
    let pass_ops = guest_ops results in
    timed_s := !timed_s +. sum Fun.id times;
    timed_ops := !timed_ops + pass_ops;
    if p = 0 then check_pass t w cells ~reference results
    else check_pass t w cells results;
    if p < fixed then begin
      words := !words +. pass_words;
      ops := !ops + pass_ops;
      Array.iter2
        (fun c r -> Buffer.add_string lines (cell_line c r ^ "\n"))
        cells results;
      add_sim sims results;
      if p = fixed - 1 then peak_mb := peak_heap_mb ()
    end;
    incr passes
  done;
  if !passes < fixed then
    attempt t false "%s: only %d of %d fixed passes ran" w.Cells.name !passes fixed;
  let cell_ms = Array.of_list (List.map (fun s -> s *. 1000.0) !cell_s) in
  Printf.printf
    "workload %s seed %d: %d cells per pass, %d passes timed (%d fixed), %d timed cells\n"
    w.Cells.name seed (Array.length first) !passes fixed (Array.length cell_ms);
  Printf.printf "host speed: times scaled by %.4f (median over passes)\n"
    (median (Array.of_list !scales));
  Printf.printf "sim_digest %s %s\n" w.Cells.name
    (Digest.to_hex (Digest.string (Buffer.contents lines)));
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric sim_%s %.17g %s\n" name v unit)
    (sim_metrics sims);
  print_result t
    [
      ("guest_ops_per_s", float_of_int !timed_ops /. !timed_s, "ops/s");
      ("cell_ms_p50", percentile cell_ms 50.0, "ms");
      ("cell_ms_p90", percentile cell_ms 90.0, "ms");
      ("setup_s", median (Array.map (fun (d, _, _) -> d) setups), "s");
      ("alloc_words_per_guest_op", !words /. float_of_int !ops, "words");
      ("peak_heap_mb", !peak_mb, "MiB");
    ]

(* ----- traced run: the per-layer metrics ----- *)

(* Raw per-pass sums, keyed by metric name. *)
let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

(* Public counters of a machine after its run. *)
let count_machine tbl (m : Machine.t) =
  let c k v = add tbl k (float_of_int v) in
  c "sim.engine.events" (Engine.events_run m.Machine.engine);
  c "sim.engine.advances" (Engine.advances m.Machine.engine);
  Array.iter
    (fun cpu ->
      let s = Tlb.stats (Cpu.tlb cpu) in
      c "hw.tlb.hits" s.Tlb.hits;
      c "hw.tlb.misses" s.Tlb.misses;
      c "hw.tlb.insertions" s.Tlb.insertions;
      c "hw.tlb.evictions" s.Tlb.evictions;
      c "hw.tlb.selective_flushes" (s.Tlb.invlpg_ops + s.Tlb.invpcid_ops);
      c "hw.tlb.full_flushes" s.Tlb.full_flushes;
      c "hw.cpu.irqs_handled" (Cpu.irqs_handled cpu);
      c "hw.cpu.interrupted_cycles" (Cpu.interrupted_cycles cpu))
    m.Machine.cpus;
  let ck = m.Machine.checker in
  c "core.checker.checks" (Checker.checks ck);
  c "core.checker.benign_races" (Checker.benign_races ck);
  c "core.checker.violations" (Checker.violation_count ck);
  Hashtbl.iter
    (fun _ mm ->
      let pt = Mm_struct.page_table mm in
      c "mm.page_table.mutations" (Page_table.version pt);
      c "mm.page_table.table_pages" (Page_table.table_pages pt);
      c "mm.page_table.tables_freed" (Page_table.tables_freed pt))
    m.Machine.mms;
  let s = m.Machine.stats in
  c "core.shootdown.shootdowns" s.Machine.shootdowns;
  c "core.shootdown.local_only_flushes" s.Machine.local_only_flushes;
  c "core.shootdown.ipis_skipped_lazy" s.Machine.ipis_skipped_lazy;
  c "core.shootdown.ipis_skipped_batched" s.Machine.ipis_skipped_batched;
  c "core.shootdown.flush_requests_skipped" s.Machine.flush_requests_skipped;
  c "core.shootdown.full_flush_fallbacks" s.Machine.full_flush_fallbacks;
  c "core.shootdown.batched_deferrals" s.Machine.batched_deferrals;
  c "core.shootdown.in_context_deferrals" s.Machine.in_context_deferrals;
  c "core.shootdown.cow_flush_avoided" s.Machine.cow_flush_avoided;
  c "core.fault.faults" s.Machine.faults;
  c "core.fault.cow_breaks" s.Machine.cow_breaks;
  c "hw.apic.ipis" (Apic.ipis_sent m.Machine.apic);
  c "hw.apic.icr_writes" (Apic.icr_writes m.Machine.apic);
  let ct = Cache.totals m.Machine.registry in
  c "hw.cache.accesses" (ct.Cache.reads + ct.Cache.writes);
  c "hw.cache.transfers"
    (ct.Cache.smt_transfers + ct.Cache.same_socket_transfers
   + ct.Cache.cross_socket_transfers);
  c "hw.cache.cross_socket_transfers" ct.Cache.cross_socket_transfers;
  c "hw.cache.sim_cycles" ct.Cache.cycles

(* Span names of the mirrors, by the cell phase they belong to. *)
let phase_of = function
  | "setup" | "gen" -> "setup"
  | "run" | "exec" | "oracle" -> "run"
  | other -> other

let gc_fields =
  [
    ("minor_words", fun g -> g.minor_words);
    ("major_words", fun g -> g.major_words);
    ("promoted_words", fun g -> g.promoted_words);
    ("minor_collections", fun g -> g.minor_collections);
    ("major_collections", fun g -> g.major_collections);
  ]

(* A Chrome trace-event slice: track, name, cell label, start, end. *)
type slice = { tid : int; name : string; cell : string; t0 : float; t1 : float }

let spans = ref []

let make_span ~tid ~cell tbl =
  {
    Mirror.span =
      (fun name f ->
        let g0 = gc_now () in
        let t0 = now () in
        let v = f () in
        let t1 = now () in
        let g1 = gc_now () in
        spans := { tid; name; cell; t0; t1 } :: !spans;
        add tbl (name ^ "_s") (t1 -. t0);
        let phase = phase_of name in
        if String.equal phase "setup" || String.equal phase "run" then
          List.iter
            (fun (k, f) -> add tbl (Printf.sprintf "gc.%s.%s" phase k) (f g1 -. f g0))
            gc_fields;
        if String.equal name "create" then add tbl "create_words" (gc_words g1 g0);
        v);
  }

let write_trace_file lines =
  Out_channel.with_open_text trace_file (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      output_string oc (String.concat ",\n" lines);
      output_string oc "\n]}\n")

let trace_lines ~tid ~name slices =
  Printf.sprintf
    "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": \
     {\"name\": %S}}"
    tid name
  :: List.rev_map
       (fun s ->
         Printf.sprintf
           "{\"name\": %S, \"cat\": \"cell\", \"ph\": \"X\", \"ts\": %.3f, \
            \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"cell\": %S}}"
           s.name
           ((s.t0 -. t_start) *. 1e6)
           ((s.t1 -. s.t0) *. 1e6)
           s.tid s.cell)
       slices

let mirror span = function
  | Cells.Micro (_, c) ->
      let o, m = Mirror.micro span c in
      (o, Some m)
  | Cells.Sysbench (_, c) ->
      let o, m = Mirror.sysbench span c in
      (o, Some m)
  | Cells.Apache (_, c) ->
      let o, m = Mirror.apache span c in
      (o, Some m)
  | Cells.Big (_, c) ->
      let o, m = Mirror.big span c in
      (o, Some m)
  | Cells.Fuzz s -> (Mirror.fuzz span s, None)

(* One traced cell: mirrored, counted and compared with the library's
   result. Returns host seconds spent outside the cell's own spans (the
   fuzz construction twins), which the overhead ratio leaves out. *)
let traced_cell t ~tid tbl c (reference : result) =
  let cell = Cells.label c in
  let span = make_span ~tid ~cell tbl in
  let t0 = now () in
  let r =
    match mirror span c with
    | o, m ->
        Option.iter (count_machine tbl) m;
        Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  add tbl "cell_s" (now () -. t0);
  attempt t (Result.is_ok r && same reference r) "mirror of %s: %s, library: %s" cell
    (cell_line c r) (cell_line c reference);
  match c with
  | Cells.Fuzz s ->
      let t1 = now () in
      span.Mirror.span "create" (fun () ->
          Mirror.fuzz_twins (Fuzz.gen_program ~max_ops:Cells.fuzz_max_ops s));
      now () -. t1
  | _ -> 0.0

let per_layer_units =
  let counts unit names = List.map (fun n -> (n, unit)) names in
  List.concat
    [
      [
        ("core.machine.create_s", "s");
        ("core.machine.create_share", "ratio");
        ("core.machine.create_words", "words");
      ];
      counts "count" [ "sim.engine.events"; "sim.engine.advances" ];
      [ ("sim.engine.dispatch_ns", "ns"); ("sim.engine.attributed_s", "s") ];
      counts "count" [ "hw.tlb.lookups" ];
      [ ("hw.tlb.hit_ratio", "ratio") ];
      counts "count"
        [
          "hw.tlb.insertions";
          "hw.tlb.evictions";
          "hw.tlb.selective_flushes";
          "hw.tlb.full_flushes";
        ];
      [
        ("hw.tlb.lookup_ns", "ns");
        ("hw.tlb.lookup_miss_ns", "ns");
        ("hw.tlb.insert_ns", "ns");
        ("hw.tlb.attributed_s", "s");
      ];
      counts "count"
        [ "core.checker.checks"; "core.checker.benign_races"; "core.checker.violations" ];
      [
        ("core.checker.check_hit_ns", "ns");
        ("core.checker.check_walk_ns", "ns");
        ("core.checker.attributed_s", "s");
      ];
      counts "count"
        [
          "mm.page_table.mutations";
          "mm.page_table.table_pages";
          "mm.page_table.tables_freed";
        ];
      [
        ("mm.page_table.update_ns", "ns");
        ("mm.page_table.map_unmap_ns", "ns");
        ("mm.page_table.attributed_s", "s");
      ];
      counts "count"
        [
          "core.shootdown.shootdowns";
          "core.shootdown.local_only_flushes";
          "core.shootdown.ipis_skipped_lazy";
          "core.shootdown.ipis_skipped_batched";
          "core.shootdown.flush_requests_skipped";
          "core.shootdown.full_flush_fallbacks";
          "core.shootdown.batched_deferrals";
          "core.shootdown.in_context_deferrals";
          "core.shootdown.cow_flush_avoided";
          "hw.apic.ipis";
          "hw.apic.icr_writes";
        ];
      [ ("hw.apic.ipis_per_icr_write", "ratio") ];
      counts "count"
        [ "hw.cache.accesses"; "hw.cache.transfers"; "hw.cache.cross_socket_transfers" ];
      [
        ("hw.cache.sim_cycles", "cycles");
        ("hw.cache.access_ns", "ns");
        ("hw.cache.attributed_s", "s");
      ];
      counts "count" [ "hw.cpu.irqs_handled" ];
      [ ("hw.cpu.interrupted_cycles", "cycles") ];
      counts "count" [ "core.fault.faults"; "core.fault.cow_breaks" ];
      List.concat_map
        (fun phase ->
          List.map
            (fun (k, _) ->
              ( Printf.sprintf "gc.%s.%s" phase k,
                if String.ends_with ~suffix:"words" k then "words" else "count" ))
            gc_fields)
        [ "setup"; "run" ];
      [
        ("fuzz.gen_s", "s");
        ("fuzz.exec_s", "s");
        ("fuzz.oracle_s", "s");
        ("cell.setup_s", "s");
        ("cell.run_s", "s");
        ("cell.check_s", "s");
        ("sim.run.residual_s", "s");
        ("sim.cycles_per_shootdown", "cycles");
        ("sim.ops_per_mcycle", "ops/Mcycle");
        ("trace.overhead_ratio", "ratio");
      ];
    ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One traced pass's per-layer values from its raw sums: counts as
   summed, times split by phase, and each layer's run time attributed as
   count x calibrated ns/op; the residual is what that model misses. *)
let layer_values (cal : Calib.t) tbl =
  let v = Hashtbl.create 64 in
  Hashtbl.iter (Hashtbl.replace v) tbl;
  let set k x = Hashtbl.replace v k x in
  let ns n per = get tbl n *. per *. 1e-9 in
  let hits = get tbl "hw.tlb.hits" and misses = get tbl "hw.tlb.misses" in
  set "core.machine.create_s" (get tbl "create_s");
  set "core.machine.create_share" (ratio (get tbl "create_s") (get tbl "cell_s"));
  set "core.machine.create_words" (get tbl "create_words");
  set "sim.engine.dispatch_ns" cal.Calib.dispatch_ns;
  set "sim.engine.attributed_s" (ns "sim.engine.events" cal.Calib.dispatch_ns);
  set "hw.tlb.lookups" (hits +. misses);
  set "hw.tlb.hit_ratio" (ratio hits (hits +. misses));
  set "hw.tlb.lookup_ns" cal.Calib.lookup_ns;
  set "hw.tlb.lookup_miss_ns" cal.Calib.lookup_miss_ns;
  set "hw.tlb.insert_ns" cal.Calib.insert_ns;
  set "hw.tlb.attributed_s"
    (ns "hw.tlb.hits" cal.Calib.lookup_ns
    +. ns "hw.tlb.misses" cal.Calib.lookup_miss_ns
    +. ns "hw.tlb.insertions" cal.Calib.insert_ns);
  set "core.checker.check_hit_ns" cal.Calib.check_hit_ns;
  set "core.checker.check_walk_ns" cal.Calib.check_walk_ns;
  set "core.checker.attributed_s" (ns "core.checker.checks" cal.Calib.check_hit_ns);
  set "mm.page_table.update_ns" cal.Calib.update_ns;
  set "mm.page_table.map_unmap_ns" cal.Calib.map_unmap_ns;
  set "mm.page_table.attributed_s" (ns "mm.page_table.mutations" cal.Calib.update_ns);
  set "hw.apic.ipis_per_icr_write"
    (ratio (get tbl "hw.apic.ipis") (get tbl "hw.apic.icr_writes"));
  set "hw.cache.access_ns" cal.Calib.access_ns;
  set "hw.cache.attributed_s" (ns "hw.cache.accesses" cal.Calib.access_ns);
  set "fuzz.gen_s" (get tbl "gen_s");
  set "fuzz.exec_s" (get tbl "exec_s");
  set "fuzz.oracle_s" (get tbl "oracle_s");
  let run_s = get tbl "run_s" +. get tbl "exec_s" +. get tbl "oracle_s" in
  set "cell.setup_s" (get tbl "setup_s" +. get tbl "gen_s");
  set "cell.run_s" run_s;
  set "cell.check_s" (get tbl "check_s");
  let attributed =
    List.fold_left
      (fun acc k -> acc +. Hashtbl.find v k)
      0.0
      [
        "sim.engine.attributed_s";
        "hw.tlb.attributed_s";
        "core.checker.attributed_s";
        "mm.page_table.attributed_s";
        "hw.cache.attributed_s";
      ]
  in
  set "sim.run.residual_s" (run_s -. attributed);
  v

let traced (w : Cells.workload) ~seed ~seconds =
  let t = tally () in
  let tid =
    Option.value ~default:0
      (List.find_index
         (fun (x : Cells.workload) -> String.equal x.Cells.name w.Cells.name)
         Cells.all)
  in
  let cal = Calib.run () in
  ignore (Array.map run_cell (w.Cells.cells ~seed ~pass:0));
  let untraced_s = ref [] and traced_s = ref [] and passes = ref [] in
  let sims = sim () in
  let loop0 = now () in
  let p = ref 0 in
  while (!p < 3 || now () -. loop0 < seconds) && now () -. t_start < max_run_s do
    let cells = w.Cells.cells ~seed ~pass:!p in
    let u0 = now () in
    let reference = Array.map run_cell cells in
    untraced_s := (now () -. u0) :: !untraced_s;
    check_pass t w cells reference;
    if !p = 0 then check_expected t w ~seed cells reference;
    add_sim sims reference;
    let tbl = Hashtbl.create 64 in
    let p0 = now () in
    let outside =
      sum Fun.id (Array.mapi (fun i c -> traced_cell t ~tid tbl c reference.(i)) cells)
    in
    traced_s := (now () -. p0 -. outside) :: !traced_s;
    passes := layer_values cal tbl :: !passes;
    incr p
  done;
  let passes = Array.of_list !passes in
  let value k =
    median (Array.map (fun v -> Option.value ~default:0.0 (Hashtbl.find_opt v k)) passes)
  in
  let overhead = median (Array.of_list !traced_s) /. median (Array.of_list !untraced_s) in
  let sim = sim_metrics sims in
  let metrics =
    List.map
      (fun (k, unit) ->
        let x =
          match k with
          | "trace.overhead_ratio" -> overhead
          | "sim.cycles_per_shootdown" | "sim.ops_per_mcycle" -> (
              match List.find_opt (fun (n, _, _) -> String.equal ("sim." ^ n) k) sim with
              | Some (_, v, _) -> v
              | None -> 0.0)
          | _ -> value k
        in
        (k, x, unit))
      per_layer_units
  in
  Printf.printf "workload %s seed %d: %d traced passes\n" w.Cells.name seed
    (Array.length passes);
  let m k = value k in
  Printf.printf
    "attribution %s: run %.4f s = engine %.4f + tlb %.4f + checker %.4f + page_table \
     %.4f + cache %.4f + residual %.4f\n"
    w.Cells.name (m "cell.run_s") (m "sim.engine.attributed_s") (m "hw.tlb.attributed_s")
    (m "core.checker.attributed_s") (m "mm.page_table.attributed_s")
    (m "hw.cache.attributed_s") (m "sim.run.residual_s");
  write_trace_file (trace_lines ~tid ~name:w.Cells.name !spans);
  print_result t metrics

(* ----- smoke check: one pass per workload against the expected files,
   plus one mirrored cell per workload ----- *)

let smoke () =
  let t = tally () in
  List.iter
    (fun (w : Cells.workload) ->
      let cells = w.Cells.cells ~seed:default_seed ~pass:0 in
      let reference = Array.map run_cell cells in
      check_expected t w ~seed:default_seed cells reference;
      let r =
        match mirror { Mirror.span = (fun _ f -> f ()) } cells.(0) with
        | o, _ -> Ok o
        | exception e -> Error (Printexc.to_string e)
      in
      attempt t (same reference.(0) r) "%s: mirror of %s differs from the library: %s"
        w.Cells.name (Cells.label cells.(0)) (cell_line cells.(0) r);
      Printf.printf "smoke %s: %d cells\n%!" w.Cells.name (Array.length cells))
    Cells.all;
  Printf.printf "smoke: %d checks, %d failed\n" t.attempted t.failed;
  exit (if t.failed = 0 then 0 else 1)

(* ----- every workload, each in a fresh child process ----- *)

let run_all ~seed ~seconds ~trace =
  let t = tally () in
  let metrics = ref [] in
  let trace_events = ref [] in
  List.iter
    (fun (w : Cells.workload) ->
      let args =
        [|
          Sys.executable_name;
          "--workload";
          w.Cells.name;
          "--seed";
          string_of_int seed;
          "--seconds";
          Printf.sprintf "%g" seconds;
          "--trace";
          (if trace then "1" else "0");
        |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let reported = ref false in
      In_channel.input_lines ic
      |> List.iter (fun line ->
             print_endline line;
             match String.split_on_char ' ' line with
             | [ "metric"; name; value; unit ] ->
                 let name = w.Cells.name ^ "." ^ name in
                 metrics := (name, float_of_string value, unit) :: !metrics
             | [ "result"; _; attempted; failed ] ->
                 reported := true;
                 Scanf.sscanf attempted "attempted=%d" (fun n ->
                     t.attempted <- t.attempted + n);
                 Scanf.sscanf failed "failed=%d" (fun n -> t.failed <- t.failed + n)
             | _ -> ());
      (match Unix.close_process_in ic with
      | Unix.WEXITED (0 | 1) when !reported -> ()
      | _ -> attempt t false "%s: the child process failed" w.Cells.name);
      if trace then
        trace_events :=
          !trace_events
          @ List.filter_map
              (fun l ->
                if not (String.starts_with ~prefix:"{\"name\"" l) then None
                else if String.ends_with ~suffix:"," l then
                  Some (String.sub l 0 (String.length l - 1))
                else Some l)
              (read_lines trace_file))
    Cells.all;
  if trace then write_trace_file !trace_events;
  print_result t (List.rev !metrics)

(* ----- command line ----- *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke] \
     [--print-cells]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Cells.name) Cells.all));
  exit 2

let () =
  let workload = ref None in
  let seed = ref default_seed in
  let seconds = ref 10.0 in
  let trace = ref false in
  let smoke_mode = ref false in
  let print_cells = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some (match Cells.find w with Some w -> w | None -> usage ());
        parse rest
    | "--seed" :: s :: rest ->
        seed := (match int_of_string_opt s with Some s -> s | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds :=
          (match float_of_string_opt s with Some s when s > 0.0 -> s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := String.equal v "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--smoke" :: rest ->
        smoke_mode := true;
        parse rest
    | "--print-cells" :: rest ->
        print_cells := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  Domain_pool.tune_current_domain ();
  if !smoke_mode then smoke ()
  else
    match !workload with
    | None -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace
    | Some w when !print_cells ->
        Array.iter
          (fun c -> print_endline (cell_line c (run_cell c)))
          (w.Cells.cells ~seed:!seed ~pass:0)
    | Some w ->
        if !trace then traced w ~seed:!seed ~seconds:!seconds
        else measure w ~seed:!seed ~seconds:!seconds
