(* The benchmark's workloads as fixed lists of cells. A cell is one call
   into a library entry point on a fresh simulated machine; a pass's cells
   are a pure function of the benchmark seed and the pass index, and the
   simulator only ever sees the generated configs.

   Each cell renders its simulated result as one line of exactly printed
   fields (floats as %.17g, which round-trips). Host-side counters such as
   [engine_ops] are left out: a change that only makes the simulator
   faster must leave every line byte-identical. *)

type cell =
  | Micro of string * Microbench.config  (** backend label, config *)
  | Sysbench of string * Sysbench.config
  | Apache of string * Apache.config
  | Big of string * Bigmachine.config
  | Fuzz of int  (** program seed *)

type workload = {
  name : string;
  cells : seed:int -> pass:int -> cell array;
      (** the cells of one pass; every pass of a run has its own inputs *)
  pass_s : float;  (** nominal host seconds per pass; sizes the fixed passes *)
}

(* Every fuzz program is generated with this op budget. *)
let fuzz_max_ops = 64

(* Fuzz programs per pass; 500 consecutive program seeds cover every
   (backend window, optimization combo) pair at least twice. *)
let fuzz_programs = 500

let label = function
  | Micro (b, c) ->
      Printf.sprintf "%s %s pte=%d seed=%Ld" b
        (Microbench.placement_label c.Microbench.placement)
        c.Microbench.pte_count c.Microbench.seed
  | Sysbench (b, c) ->
      Printf.sprintf "%s threads=%d seed=%Ld" b c.Sysbench.threads c.Sysbench.seed
  | Apache (b, c) -> Printf.sprintf "%s cores=%d seed=%Ld" b c.Apache.cores c.Apache.seed
  | Big (b, c) -> Printf.sprintf "%s seed=%Ld" b c.Bigmachine.seed
  | Fuzz s -> Printf.sprintf "program=%d" s

(* Simulator seeds: a disjoint block per (benchmark seed, pass). *)
let pass_block ~seed ~pass = (seed * 100_000) + pass
let cell_seed ~seed ~pass i = Int64.of_int ((pass_block ~seed ~pass * 100) + i)

(* Fresh opts for every cell: [Opts.t] is mutable, so no two machines
   share one. *)
let backend_cells backends ~axis make =
  let n = List.length (backends ()) in
  Array.of_list
    (List.concat
       (List.mapi
          (fun ai x ->
            List.init n (fun bi ->
                let label, opts = List.nth (backends ()) bi in
                make ~index:((ai * n) + bi) label opts x))
          axis))

let micro_cells ~seed ~pass =
  let backends () =
    ("paper-baseline", Opts.baseline ~safe:true) :: Shootout.workload_backends ()
  in
  let axis = List.concat_map (fun p -> [ (p, 1); (p, 10) ]) Microbench.all_placements in
  backend_cells backends ~axis (fun ~index label opts (placement, pte_count) ->
      let c = Microbench.default_config ~opts ~placement ~pte_count in
      Micro (label, { c with Microbench.seed = cell_seed ~seed ~pass index }))

let sysbench_cells ~seed ~pass =
  backend_cells Shootout.workload_backends ~axis:[ 4; 16 ]
    (fun ~index label opts threads ->
      let c = Sysbench.default_config ~opts ~threads in
      let seed = cell_seed ~seed ~pass index in
      Sysbench (label, { c with Sysbench.ops_per_thread = 120; file_pages = 1024; seed }))

let apache_cells ~seed ~pass =
  backend_cells Shootout.workload_backends ~axis:[ 2; 11 ]
    (fun ~index label opts cores ->
      let c = Apache.default_config ~opts ~cores in
      let seed = cell_seed ~seed ~pass index in
      Apache (label, { c with Apache.requests = 220; seed }))

(* The oracle is left out: one 1024-CPU oracle cell takes seconds. *)
let big_cells ~seed ~pass =
  let backends () =
    List.filter
      (fun (b, _) -> not (String.equal b "oracle"))
      (Shootout.workload_backends ())
  in
  backend_cells backends ~axis:[ 1024 ] (fun ~index label opts n_cpus ->
      let c = Bigmachine.quick_shape (Bigmachine.default_config ~opts ~n_cpus) in
      Big (label, { c with Bigmachine.seed = cell_seed ~seed ~pass index }))

let fuzz_cells ~seed ~pass =
  Array.init fuzz_programs (fun i -> Fuzz ((pass_block ~seed ~pass * fuzz_programs) + i))

(* Why each workload is here is in README.md and BENCHMARK.json: each
   loads a different layer, so a change to one layer has a workload that
   exercises it and one that does not. *)
let all =
  [
    { name = "micro-madvise"; cells = micro_cells; pass_s = 0.6 };
    { name = "sysbench-write"; cells = sysbench_cells; pass_s = 0.6 };
    { name = "apache-mmap"; cells = apache_cells; pass_s = 0.17 };
    { name = "bigmachine-1024"; cells = big_cells; pass_s = 0.44 };
    { name = "fuzz-diff"; cells = fuzz_cells; pass_s = 0.85 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* ----- library runs ----- *)

let g = Printf.sprintf "%.17g"

type outcome = {
  line : string;
  guest_ops : int;  (** simulated user accesses and syscalls the cell issued *)
  engine_ops : int;  (** not in [line]; compared only between library and mirror *)
  cycles_per_shootdown : float option;
  ops_per_mcycle : float option;  (** guest ops per simulated megacycle *)
}

let per_mcycle ops cycles = float_of_int ops *. 1e6 /. float_of_int cycles

let micro_outcome (c : Microbench.config) (r : Microbench.result) =
  {
    line =
      Printf.sprintf "initiator_mean=%s initiator_sd=%s responder_mean=%s shootdowns=%d"
        (g r.Microbench.initiator_mean) (g r.Microbench.initiator_sd)
        (g r.Microbench.responder_mean) r.Microbench.shootdowns;
    (* per iteration: pte_count touches + one madvise *)
    guest_ops =
      (c.Microbench.iterations + c.Microbench.warmup) * (c.Microbench.pte_count + 1);
    engine_ops = r.Microbench.engine_ops;
    cycles_per_shootdown = Some r.Microbench.initiator_mean;
    ops_per_mcycle = None;
  }

let sysbench_outcome (r : Sysbench.result) =
  {
    line =
      Printf.sprintf
        "ops=%d cycles=%d throughput=%s shootdowns=%d full_flush_fallbacks=%d \
         batched_deferrals=%d"
        r.Sysbench.ops r.Sysbench.cycles (g r.Sysbench.throughput) r.Sysbench.shootdowns
        r.Sysbench.full_flush_fallbacks r.Sysbench.batched_deferrals;
    guest_ops = r.Sysbench.ops;
    engine_ops = r.Sysbench.engine_ops;
    cycles_per_shootdown = None;
    ops_per_mcycle = Some (per_mcycle r.Sysbench.ops r.Sysbench.cycles);
  }

let apache_outcome (c : Apache.config) (r : Apache.result) =
  (* per request: mmap, one read per file page, munmap *)
  let guest_ops = r.Apache.requests_done * (c.Apache.file_pages + 2) in
  {
    line =
      Printf.sprintf "requests_done=%d cycles=%d throughput=%s shootdowns=%d"
        r.Apache.requests_done r.Apache.cycles (g r.Apache.throughput)
        r.Apache.shootdowns;
    guest_ops;
    engine_ops = r.Apache.engine_ops;
    cycles_per_shootdown = None;
    ops_per_mcycle = Some (per_mcycle guest_ops r.Apache.cycles);
  }

let big_outcome (c : Bigmachine.config) (r : Bigmachine.result) =
  {
    line =
      Printf.sprintf
        "n_cpus=%d threads=%d ops=%d shootdowns=%d ipis=%d icr_writes=%d churn_cycles=%d \
         churns=%d cycles_per_shootdown=%s"
        r.Bigmachine.n_cpus r.Bigmachine.threads r.Bigmachine.ops r.Bigmachine.shootdowns
        r.Bigmachine.ipis r.Bigmachine.icr_writes r.Bigmachine.churn_cycles
        r.Bigmachine.churns (g r.Bigmachine.cycles_per_shootdown);
    (* per churn: madvise, munmap, mmap and one write per arena page *)
    guest_ops = r.Bigmachine.ops + (r.Bigmachine.churns * (3 + c.Bigmachine.churn_pages));
    engine_ops = r.Bigmachine.engine_ops;
    cycles_per_shootdown = Some r.Bigmachine.cycles_per_shootdown;
    ops_per_mcycle = None;
  }

(* A divergence from the oracle fails the cell like any other raise. *)
let fuzz_outcome (p : Fuzz.program) reasons =
  match reasons with
  | r :: _ -> failwith ("fuzz divergence: " ^ r)
  | [] ->
  {
    line = Printf.sprintf "ops=%d divergences=0" (List.length p.Fuzz.p_ops);
    (* every op runs twice: under the backend and under the oracle *)
    guest_ops = 2 * List.length p.Fuzz.p_ops;
    engine_ops = 0;
    cycles_per_shootdown = None;
    ops_per_mcycle = None;
  }

let run = function
  | Micro (_, c) -> micro_outcome c (Microbench.run c)
  | Sysbench (_, c) -> sysbench_outcome (Sysbench.run c)
  | Apache (_, c) -> apache_outcome c (Apache.run c)
  | Big (_, c) -> big_outcome c (Bigmachine.run c)
  | Fuzz s ->
      let p = Fuzz.gen_program ~max_ops:fuzz_max_ops s in
      fuzz_outcome p (Fuzz.run_program p)
