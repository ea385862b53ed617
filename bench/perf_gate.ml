(* Perf regression gate over two BENCH_PERF.json files (Bench_perf rows).

     perf_gate.exe BASELINE.json CURRENT.json [--threshold 0.25]

   Every baseline row of a gated family is looked up by (family, key) in
   the current file. A row missing there fails. A row that either side
   marks as not comparable (the skip rules below) is reported as a skip.
   Otherwise every gate of the family compares the metric, and fails when
   it moves the wrong way by more than the threshold.

   Only the experiments' engine_ops_per_s is host wall time. Raw ops/s
   differs run to run on CI machines, so that gate divides each row's
   current/baseline ratio by the median ratio over the family's gated
   rows: a host that is uniformly faster or slower moves the median, not
   the quotient, and a row fails only when it slowed down against the
   typical row. Unlike a share of the run's aggregate ops/s, the median
   does not follow the few experiments that dominate the run's ops, so a
   large speedup of one of them fails no other row. Every other metric
   is a deterministic function of the simulation (allocation per engine
   op, process suspensions, simulated cycles, simulated throughput) and
   is compared raw.

   A file that does not parse, lacks "schema" or declares another schema
   exits 2, as does a baseline with nothing to gate. Families no gate
   covers are named on stderr, never silently ignored. *)

type better = Higher | Lower

type gate = { metric : string; better : better; normalized : bool }

(* (family, gate): one line per gated metric. *)
let gate ?(normalized = false) family metric better =
  (family, { metric; better; normalized })

let gates =
  [
    gate "experiments" "engine_ops_per_s" Higher ~normalized:true;
    gate "experiments" "minor_words_per_engine_op" Lower;
    gate "experiments" "suspensions" Lower;
    gate "bigmachine" "cycles_per_shootdown" Lower;
    gate "shootout" "initiator_mean" Lower;
    gate "workloads" "throughput" Higher;
    gate "workloads" "cycles_per_shootdown" Lower;
  ]

(* In-file bounds on the current run alone, (family, metric, key, of key,
   limit): the 1024-CPU machine's cost per shootdown stays within 2x of
   the 56-CPU paper machine's — the O(active CPUs) property the cpuset
   layer exists to provide. *)
let ratios =
  [ ("bigmachine", "cycles_per_shootdown", "bigmachine-1024", "bigmachine-56", 2.0) ]

(* Below this many engine ops a host-timed row's wall time is noise. *)
let min_ops = 100_000.0

open Bench_perf

let carries r name = List.mem_assoc name r.values
let positive r name = match value r name with Some v -> v > 0.0 | None -> false

(* Skip rules, shared by every family. A memoized row executed none of its
   own cells, so its numbers belong to the experiment that owns them. A
   row that ran cells measures them whatever else it reused, so a row
   counting runs is skipped as memoized only when it ran none (older
   files marked a partly reused row memoized). *)
let skip_rules =
  [
    ( "memoized (cells owned by an earlier experiment)",
      fun r -> r.memoized && not (positive r "runs") );
    ("no shootdowns", fun r -> carries r "shootdowns" && not (positive r "shootdowns"));
    ( "trivial, zero-wall or no engine ops",
      fun r ->
        let ops = Option.value (value r "engine_ops") ~default:0.0 in
        carries r "wall_s" && not (positive r "wall_s" && ops >= min_ops) );
  ]

let skipped r = List.exists (fun (_, rule) -> rule r) skip_rules

let find rows family key =
  List.find_opt (fun r -> String.equal r.family family && String.equal r.key key) rows

(* The median current/baseline ratio of [metric] over the family's rows
   that both files gate; 1 when there are none. *)
let median_ratio base cur family metric =
  let ratios =
    List.filter_map
      (fun b ->
        match find cur family b.key with
        | Some c when String.equal b.family family && not (skipped b || skipped c) -> (
            match (value b metric, value c metric) with
            | Some bv, Some cv when bv > 0.0 -> Some (cv /. bv)
            | _ -> None)
        | _ -> None)
      base
    |> List.sort Float.compare |> Array.of_list
  in
  let n = Array.length ratios in
  if n = 0 then 1.0
  else if n mod 2 = 1 then ratios.(n / 2)
  else (ratios.((n / 2) - 1) +. ratios.(n / 2)) /. 2.0

let fail_usage msg =
  prerr_endline ("perf_gate: " ^ msg);
  exit 2

let () =
  let threshold, files =
    let rec parse threshold files = function
      | [] -> (threshold, List.rev files)
      | "--threshold" :: t :: rest -> (
          match float_of_string_opt t with
          | Some t -> parse t files rest
          | None -> fail_usage ("bad --threshold " ^ t))
      | f :: rest -> parse threshold (f :: files) rest
    in
    parse 0.25 [] (List.tl (Array.to_list Sys.argv))
  in
  let load path =
    match Bench_perf.load path with
    | Ok rows -> rows
    | Error msg -> fail_usage (Printf.sprintf "%s: %s" path msg)
  in
  let base, cur =
    match files with
    | [ b; c ] ->
        let base = load b in
        (base, load c)
    | _ -> fail_usage "usage: perf_gate.exe BASELINE.json CURRENT.json [--threshold 0.25]"
  in
  let gated r = List.mem_assoc r.family gates in
  List.iter2
    (fun path rows ->
      let ungated = List.filter (fun r -> not (gated r)) rows in
      List.sort_uniq String.compare (List.map (fun r -> r.family) ungated)
      |> List.iter (fun family ->
             let n =
               List.length (List.filter (fun r -> String.equal r.family family) ungated)
             in
             Printf.eprintf "perf_gate: %s: no gate covers the %d %S row(s)\n" path n
               family))
    files [ base; cur ];
  if not (List.exists gated base) then fail_usage (List.hd files ^ ": no rows to gate");
  let failed = ref 0 in
  let verdict ~bad id what rel detail =
    if bad then incr failed;
    Printf.printf "%-4s %-44s %s %.2fx %s\n"
      (if bad then "FAIL" else "ok")
      id what rel detail
  in
  let check id b c g =
    match (value b g.metric, value c g.metric) with
    | Some bv, Some cv when bv > 0.0 ->
        let median =
          if g.normalized then median_ratio base cur b.family g.metric else 1.0
        in
        let rel = cv /. bv /. Float.max 1e-9 median in
        let limit =
          match g.better with Higher -> 1.0 -. threshold | Lower -> 1.0 +. threshold
        in
        verdict
          ~bad:(match g.better with Higher -> rel < limit | Lower -> rel > limit)
          id
          (g.metric ^ if g.normalized then " / median" else "")
          rel
          (if g.normalized then
             Printf.sprintf "of baseline (%.6g vs %.6g, median %.2fx, limit %.2fx)" cv bv
               median limit
           else Printf.sprintf "of baseline (%.6g vs %.6g, limit %.2fx)" cv bv limit);
        true
    | _ -> false
  in
  List.iter
    (fun b ->
      let id = b.family ^ "/" ^ b.key in
      if gated b then
        match find cur b.family b.key with
        | None ->
            incr failed;
            Printf.printf "FAIL %-44s missing from current run\n" id
        | Some c -> (
            match List.find_opt (fun (_, rule) -> rule b || rule c) skip_rules with
            | Some (why, _) -> Printf.printf "skip %-44s %s (not gated)\n" id why
            | None ->
                let mine = List.filter (fun (f, _) -> String.equal f b.family) gates in
                let compared = List.filter (fun (_, g) -> check id b c g) mine in
                if List.is_empty compared then
                  Printf.printf "skip %-44s no gated metric (not gated)\n" id))
    base;
  List.iter
    (fun (family, metric, key, of_key, limit) ->
      let metric_of k =
        match find cur family k with
        | Some r when not (skipped r) -> value r metric
        | _ -> None
      in
      match (metric_of key, metric_of of_key) with
      | Some v, Some of_v when of_v > 0.0 ->
          let rel = v /. of_v in
          verdict ~bad:(rel > limit) (family ^ "/" ^ key) metric rel
            (Printf.sprintf "of %s (%.6g vs %.6g, limit %.2fx)" of_key v of_v limit)
      | _ -> ())
    ratios;
  if !failed > 0 then begin
    Printf.printf "%d gate(s) failed (threshold %.0f%%)\n" !failed (threshold *. 100.0);
    exit 1
  end;
  print_endline "perf gate passed"
