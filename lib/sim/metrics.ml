(* Labeled metric series: a registry of (name, labels) -> Stats.t +
   fixed-bucket histogram, with deterministic merge and export.

   Design constraints (DESIGN.md §10):
   - Recording must be free when metering is off: every series shares the
     registry's [on] flag and [record]/[record_cycles] test it before
     touching the accumulators. [record_cycles] takes an [int] so the
     disabled path never boxes a float.
   - Merging must be commutative-enough for the plan-order reduce in
     Workloads.Shard: every shard pre-registers the same series in the
     same order (Machine.create does this), and [merge_into] walks the
     source in registration order, so the merged registry's series order —
     and therefore every export — is a pure function of the plan.
   - Exports sort by (name, labels) so output is independent of
     registration order anyway; registration order only decides merge
     iteration, which is order-insensitive for Stats/Histogram merges up
     to float rounding (and the plan-order reduce fixes even that). *)

type series = {
  name : string;
  labels : (string * string) list; (* sorted by label key *)
  key : string;
  stats : Stats.t;
  hist : Stats.Histogram.h;
  on : bool ref;
}

type t = {
  on : bool ref;
  tbl : (string, series) Hashtbl.t;
  mutable rev_series : series list; (* registration order, reversed *)
}

let create ?(enabled = true) () =
  { on = ref enabled; tbl = Hashtbl.create 64; rev_series = [] }

let enabled t = !(t.on)

let render_key name labels =
  let b = Buffer.create 64 in
  Buffer.add_string b name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    labels;
  Buffer.contents b

let series t ~name ?(labels = []) ~lo ~hi ~buckets () =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let key = render_key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some s ->
      if (not (Float.equal (Stats.Histogram.lo s.hist) lo))
         || (not (Float.equal (Stats.Histogram.hi s.hist) hi))
         || Stats.Histogram.buckets s.hist <> buckets
      then invalid_arg ("Metrics.series: conflicting histogram config for " ^ key);
      s
  | None ->
      let s =
        {
          name;
          labels;
          key;
          stats = Stats.create ();
          hist = Stats.Histogram.create ~lo ~hi ~buckets;
          on = t.on;
        }
      in
      Hashtbl.add t.tbl key s;
      t.rev_series <- s :: t.rev_series;
      s

let[@inline] record (s : series) v =
  if !(s.on) then begin
    Stats.add s.stats v;
    Stats.Histogram.add s.hist v
  end

let[@inline] record_cycles (s : series) c =
  if !(s.on) then record s (float_of_int c)
let stats s = s.stats
let series_name s = s.name
let series_labels s = s.labels

let all t = List.rev t.rev_series

let sorted_all t =
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> String.compare a.key b.key
      | c -> c)
    (all t)

(* Merge [src] into [dst], registering any series [dst] lacks (with the
   source's histogram config). Walks [src] in registration order so that
   identically-registered registries merge into identical registries. *)
let merge_into dst src =
  List.iter
    (fun s ->
      let d =
        series dst ~name:s.name ~labels:s.labels ~lo:(Stats.Histogram.lo s.hist)
          ~hi:(Stats.Histogram.hi s.hist)
          ~buckets:(Stats.Histogram.buckets s.hist)
          ()
      in
      Stats.merge_into d.stats s.stats;
      Stats.Histogram.merge_into d.hist s.hist)
    (all src)

(* --- exports --- *)

(* Deterministic float rendering: shortest round-trip decimal would be
   ideal but %.17g is noisy; cycle counts and their percentiles fit
   comfortably in %.6g without collisions at the scales we measure. *)
let fstr v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float_opt = function None -> "null" | Some v -> fstr v

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": 1,\n  \"series\": [\n";
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b "    {";
      Buffer.add_string b (Printf.sprintf "\"metric\": \"%s\"" (json_escape s.name));
      Buffer.add_string b ", \"labels\": {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
        s.labels;
      Buffer.add_string b "}";
      let st = s.stats in
      Buffer.add_string b (Printf.sprintf ", \"count\": %d" (Stats.count st));
      Buffer.add_string b (Printf.sprintf ", \"sum\": %s" (fstr (Stats.total st)));
      Buffer.add_string b (Printf.sprintf ", \"mean\": %s" (fstr (Stats.mean st)));
      Buffer.add_string b (Printf.sprintf ", \"stddev\": %s" (fstr (Stats.stddev st)));
      Buffer.add_string b
        (Printf.sprintf ", \"min\": %s" (json_float_opt (Stats.min_opt st)));
      Buffer.add_string b
        (Printf.sprintf ", \"p50\": %s" (json_float_opt (Stats.percentile_opt st 50.0)));
      Buffer.add_string b
        (Printf.sprintf ", \"p90\": %s" (json_float_opt (Stats.percentile_opt st 90.0)));
      Buffer.add_string b
        (Printf.sprintf ", \"p99\": %s" (json_float_opt (Stats.percentile_opt st 99.0)));
      Buffer.add_string b
        (Printf.sprintf ", \"max\": %s" (json_float_opt (Stats.max_opt st)));
      let h = s.hist in
      Buffer.add_string b
        (Printf.sprintf ", \"histogram\": {\"lo\": %s, \"hi\": %s, \"counts\": ["
           (fstr (Stats.Histogram.lo h))
           (fstr (Stats.Histogram.hi h)));
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (string_of_int c))
        (Stats.Histogram.counts h);
      Buffer.add_string b
        (Printf.sprintf "], \"underflow\": %d, \"overflow\": %d, \"nan\": %d}"
           (Stats.Histogram.underflow h)
           (Stats.Histogram.overflow h)
           (Stats.Histogram.nan_count h));
      Buffer.add_string b "}")
    (sorted_all t);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_label_str labels extra =
  let parts =
    List.map
      (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (json_escape v))
      labels
    @ extra
  in
  match parts with [] -> "" | _ -> "{" ^ String.concat "," parts ^ "}"

let to_prometheus t =
  let b = Buffer.create 4096 in
  let groups = sorted_all t in
  let seen_type = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let m = prom_name ("tlbsim_" ^ s.name) in
      if not (Hashtbl.mem seen_type m) then begin
        Hashtbl.add seen_type m ();
        Buffer.add_string b
          (Printf.sprintf "# HELP %s Simulated cycle distribution for %s.\n" m s.name);
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m)
      end;
      let h = s.hist in
      let counts = Stats.Histogram.counts h in
      let lo = Stats.Histogram.lo h and n = Array.length counts in
      let width = (Stats.Histogram.hi h -. lo) /. float_of_int n in
      (* Cumulative buckets: underflow lands in every bucket (every sample
         below [lo] is ≤ each upper edge); overflow and NaN only in +Inf. *)
      let cum = ref (Stats.Histogram.underflow h) in
      for i = 0 to n - 1 do
        cum := !cum + counts.(i);
        let le = lo +. (float_of_int (i + 1) *. width) in
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" m
             (prom_label_str s.labels [ Printf.sprintf "le=\"%s\"" (fstr le) ])
             !cum)
      done;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" m
           (prom_label_str s.labels [ "le=\"+Inf\"" ])
           (Stats.Histogram.total h));
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %s\n" m (prom_label_str s.labels [])
           (fstr (Stats.total s.stats)));
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" m (prom_label_str s.labels [])
           (Stats.count s.stats)))
    groups;
  Buffer.contents b

let pp_table fmt t =
  let label_str s =
    String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) s.labels)
  in
  let rows =
    List.map
      (fun s ->
        let st = s.stats in
        let cell o = match o with None -> "-" | Some v -> fstr v in
        ( s.name,
          label_str s,
          string_of_int (Stats.count st),
          (if Stats.count st = 0 then "-" else fstr (Stats.mean st)),
          cell (Stats.percentile_opt st 50.0),
          cell (Stats.percentile_opt st 99.0),
          cell (Stats.max_opt st),
          let h = s.hist in
          let u = Stats.Histogram.underflow h and o = Stats.Histogram.overflow h in
          if u = 0 && o = 0 then "" else Printf.sprintf "u=%d o=%d" u o ))
      (sorted_all t)
  in
  let headers = ("metric", "labels", "n", "mean", "p50", "p99", "max", "of-range") in
  let w f =
    let h1, h2, h3, h4, h5, h6, h7, h8 = headers in
    List.fold_left
      (fun acc r -> Stdlib.max acc (String.length (f r)))
      (String.length (f (h1, h2, h3, h4, h5, h6, h7, h8)))
      rows
  in
  let g1 (x, _, _, _, _, _, _, _) = x
  and g2 (_, x, _, _, _, _, _, _) = x
  and g3 (_, _, x, _, _, _, _, _) = x
  and g4 (_, _, _, x, _, _, _, _) = x
  and g5 (_, _, _, _, x, _, _, _) = x
  and g6 (_, _, _, _, _, x, _, _) = x
  and g7 (_, _, _, _, _, _, x, _) = x
  and g8 (_, _, _, _, _, _, _, x) = x in
  let w1 = w g1 and w2 = w g2 and w3 = w g3 and w4 = w g4 in
  let w5 = w g5 and w6 = w g6 and w7 = w g7 and w8 = w g8 in
  let line r =
    Format.fprintf fmt "%-*s  %-*s  %*s  %*s  %*s  %*s  %*s  %-*s@." w1 (g1 r) w2
      (g2 r) w3 (g3 r) w4 (g4 r) w5 (g5 r) w6 (g6 r) w7 (g7 r) w8 (g8 r)
  in
  let h1, h2, h3, h4, h5, h6, h7, h8 = headers in
  line (h1, h2, h3, h4, h5, h6, h7, h8);
  List.iter line rows
