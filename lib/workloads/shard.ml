(* Sub-experiment sharding: the run/reduce split behind `bench -j N`.

   An experiment is flattened at *plan* time into self-contained sim-run
   cells — each cell owns its config (opts copied, seed fixed) and builds
   its machine inside the cell, so cells share no mutable state. Execution
   pushes every plan's cells onto one shared domain pool in
   longest-task-first order; each cell writes its value and measure into
   its own slot. Reduction then walks the plans in submission order,
   reading slots — so the printed output is a pure function of the cell
   values, i.e. byte-identical for every [-j], by construction.

   Measures ride along per cell: wall-clock, engine ops (read from the
   run's own engines via the result extractor — there is no process-wide
   ops counter to misattribute), process suspensions (read around the run
   from the domain-local counter, exact for the same reason minor words
   are), and GC words. Minor words use
   [Gc.minor_words] (domain-local, exact under any [-j]); major/promoted
   deltas come from the executing domain's [quick_stat], exact because a
   cell runs on exactly one domain and no domain is joined mid-pool. *)

type measure = {
  wall_s : float;  (** summed run wall — CPU-seconds under [-j N] *)
  max_wall_s : float;  (** slowest single run: the shard-level critical path *)
  engine_ops : int option;  (** [None] = no engine-driven run (n/a, not 0) *)
  suspensions : int;  (** exact: [Engine.suspensions] is domain-local *)
  minor_words : float;
  major_words : float;
  promoted_words : float;
  runs : int;
}

let zero_measure =
  {
    wall_s = 0.0;
    max_wall_s = 0.0;
    engine_ops = None;
    suspensions = 0;
    minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    runs = 0;
  }

let add_measure a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    max_wall_s = Float.max a.max_wall_s b.max_wall_s;
    engine_ops =
      (match (a.engine_ops, b.engine_ops) with
      | None, o | o, None -> o
      | Some x, Some y -> Some (x + y));
    suspensions = a.suspensions + b.suspensions;
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    runs = a.runs + b.runs;
  }

type job = {
  label : string;
  weight : float;  (** estimated cost in engine-op units; drives LPT order *)
  exec : progress:bool -> unit;
  measure : measure option ref;
}

type plan = {
  name : string;
  jobs : job list;  (** cells this experiment *owns* (pays for, in perf) *)
  reused : int;  (** cells read from the memo, owned by an earlier plan *)
  reduce : unit -> Bench_perf.row list;  (** prints tables via {!Report}; reads cells *)
}

let cell ?(label = "") ?ops ~weight f =
  let slot = ref None in
  let measure = ref None in
  let exec ~progress =
    let s0 = Gc.quick_stat () in
    let mw0 = Gc.minor_words () in
    let su0 = Engine.suspensions () in
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let wall = Unix.gettimeofday () -. t0 in
    let su1 = Engine.suspensions () in
    let mw1 = Gc.minor_words () in
    let s1 = Gc.quick_stat () in
    slot := Some v;
    measure :=
      Some
        {
          wall_s = wall;
          max_wall_s = wall;
          engine_ops = Option.map (fun g -> g v) ops;
          suspensions = su1 - su0;
          minor_words = mw1 -. mw0;
          major_words = s1.Gc.major_words -. s0.Gc.major_words;
          promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
          runs = 1;
        };
    if progress then Printf.eprintf "[bench]   %-32s %6.2fs\n%!" label wall
  in
  let get () =
    match !slot with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Shard: cell %S read before execution (reduce before run?)"
             label)
  in
  ({ label; weight; exec; measure }, get)

(* Cross-experiment cell memoization. Identical (config, seed) cells —
   e.g. an ablation row at the same scale as a fig10 point, or the micro
   matrices figs 5-8 and table 3 both consume — run once: the first plan
   to register a key owns the job (and its measure); later registrations
   get only the getter. Plan construction is sequential and deterministic,
   so ownership is stable run to run, and reading a shared slot is exactly
   reading any other cell's slot — reduced output stays byte-identical for
   every [-j]. Keys come from the workloads' [config_key] serializers,
   which cover every config field. *)
type 'a memo = (string, unit -> 'a) Hashtbl.t

let create_memo () : 'a memo = Hashtbl.create 64

let memo_cell memo ~key ?label ?ops ~weight f =
  match Hashtbl.find_opt memo key with
  | Some get -> ([], get, false)
  | None ->
      let job, get = cell ?label ?ops ~weight f in
      Hashtbl.add memo key get;
      ([ job ], get, true)

type outcome = {
  out_name : string;
  output : string;
  out_rows : Bench_perf.row list;
  out_measure : measure;
  out_reused : int;
}

let aggregate jobs ~reduce_wall =
  let m =
    List.fold_left
      (fun acc j ->
        match !(j.measure) with
        | Some jm -> add_measure acc jm
        | None -> acc)
      zero_measure jobs
  in
  { m with wall_s = m.wall_s +. reduce_wall }

let execute ?(progress = false) ~jobs plans =
  let all = Array.of_list (List.concat_map (fun p -> p.jobs) plans) in
  let weights = Array.map (fun j -> j.weight) all in
  let thunks = Array.map (fun j () -> j.exec ~progress) all in
  let gc = ref Domain_pool.zero_gc_totals in
  ignore
    (Domain_pool.run ~jobs ~weights ~tune_gc:true ~gc_totals:gc thunks : unit array);
  let outcomes =
    List.map
      (fun p ->
        let t0 = Unix.gettimeofday () in
        let output, out_rows = Report.capture p.reduce in
        let reduce_wall = Unix.gettimeofday () -. t0 in
        {
          out_name = p.name;
          output;
          out_rows;
          out_measure = aggregate p.jobs ~reduce_wall;
          out_reused = p.reused;
        })
      plans
  in
  (outcomes, !gc)

let run_cells ~jobs cells =
  let plan = { name = ""; jobs = cells; reused = 0; reduce = (fun () -> []) } in
  ignore (execute ~jobs [ plan ])
