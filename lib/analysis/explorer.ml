(* Systematic interleaving exploration.

   The engine's chooser hook turns every set of near-simultaneous pending
   events into a scheduling decision point. A run is identified by its
   decision prefix: entry [d] of the prefix is the candidate index taken at
   decision [d]; decisions past the end of the prefix take candidate 0 (the
   deterministic default order). The explorer runs the empty prefix, then
   depth-first re-runs with every untried alternative at every decision the
   run encountered (bounded by [max_choice_points], [max_branch] and
   [max_runs]) — stateless-model-checking style, with replay instead of
   checkpointing because runs are deterministic given the prefix.

   Each run checks the protocol's safety invariants at every decision point
   and at quiescence, and feeds the collected trace through the
   happens-before analyzer; any violation is reported with the prefix that
   reproduces it. *)

type config = {
  max_choice_points : int;
  max_branch : int;
  max_runs : int;
  horizon : int;
  trace_cap : int;
}

let default_config =
  { max_choice_points = 12; max_branch = 2; max_runs = 64; horizon = 30; trace_cap = 20_000 }

type failure = { fail_prefix : int list; fail_what : string }

type result = {
  runs : int;
  max_depth : int; (* deepest decision count any run reached *)
  failures : failure list; (* deduplicated by message *)
  stale_hits : int;
  proved_in_flight : int;
  unordered_latent : int;
  genuine : int;
}

(* Invariants probed mid-run, from inside the chooser (no process context:
   reads only). *)
let probe m add_failure =
  for cpu = 0 to Machine.n_cpus m - 1 do
    let pcpu = Machine.percpu m cpu in
    let cpu_t = Machine.cpu m cpu in
    (* §3.4: a CPU executing user code must have no deferred user flush
       outstanding — return_to_user is obliged to drain it. *)
    if Cpu.in_user cpu_t && not (Percpu.no_pending_user pcpu.Percpu.pending_user) then
      add_failure (Printf.sprintf "cpu%d runs user code with a deferred user flush pending" cpu);
    (* §3.2: whenever nmi_uaccess_okay claims an NMI may touch user memory,
       the translations that NMI would use must hold nothing stale that is
       not excused by an open invalidation window. An NMI runs in kernel
       context, so under PTI it sees the kernel-PCID view — which §3.4
       flushes eagerly in-context; the user PCID is unreachable from NMIs
       and its staleness is governed by the return-to-user contract probed
       above. *)
    if Shootdown.nmi_uaccess_okay m ~cpu then
      match pcpu.Percpu.loaded_mm with
      | None -> ()
      | Some mm ->
          let pcid = Percpu.current_kernel_pcid pcpu in
          let pt = Mm_struct.page_table mm in
          List.iter
            (fun (e : Tlb.entry) ->
              if e.Tlb.pcid = pcid then begin
                let pte = Page_table.walk pt ~vpn:e.Tlb.vpn in
                let stale = (not (Pte.present pte)) || Pte.pfn pte <> e.Tlb.pfn in
                if
                  stale
                  && not (Checker.covered m.Machine.checker ~mm_id:(Mm_struct.id mm) ~vpn:e.Tlb.vpn)
                then
                  add_failure
                    (Printf.sprintf
                       "cpu%d: nmi_uaccess_okay with a stale uncovered entry (vpn %d)" cpu
                       e.Tlb.vpn)
              end)
            (Tlb.entries (Cpu.tlb cpu_t))
  done

let run_once ~config ~build ~prefix ~add_failure =
  let m = build () in
  Trace.set_max_records m.Machine.trace (Some config.trace_cap);
  Trace.enable m.Machine.trace;
  let depth = ref 0 in
  let decisions = ref [] in
  let prefix_arr = Array.of_list prefix in
  Engine.set_chooser m.Machine.engine ~horizon:config.horizon (fun ncand ->
      probe m add_failure;
      let d = !depth in
      incr depth;
      if d < Array.length prefix_arr then prefix_arr.(d)
      else begin
        if ncand > 1 && d < config.max_choice_points then decisions := (d, ncand) :: !decisions;
        0
      end);
  (try Kernel.run m
   with exn -> add_failure ("uncaught exception: " ^ Printexc.to_string exn));
  Engine.clear_chooser m.Machine.engine;
  Kernel.check_quiescent m add_failure;
  let report = Hb.analyze_trace m.Machine.trace in
  if report.Hb.genuine > 0 then
    add_failure
      (Printf.sprintf "happens-before analysis found %d genuine race(s)" report.Hb.genuine);
  (!depth, List.rev !decisions, report)

let explore ~config build =
  let runs = ref 0 and max_depth = ref 0 in
  let failures = ref [] in
  let seen_failures = Hashtbl.create 16 in
  let hits = ref 0 and proved = ref 0 and latent = ref 0 and genuine = ref 0 in
  let rec go prefix =
    if !runs < config.max_runs then begin
      incr runs;
      let add_failure what =
        if not (Hashtbl.mem seen_failures what) then begin
          Hashtbl.replace seen_failures what ();
          failures := { fail_prefix = prefix; fail_what = what } :: !failures
        end
      in
      let depth, decisions, report = run_once ~config ~build ~prefix ~add_failure in
      max_depth := Stdlib.max !max_depth depth;
      hits := !hits + report.Hb.stale_hits;
      proved := !proved + report.Hb.proved_in_flight;
      latent := !latent + report.Hb.unordered_latent;
      genuine := !genuine + report.Hb.genuine;
      List.iter
        (fun (d, ncand) ->
          for alt = 1 to Stdlib.min ncand config.max_branch - 1 do
            if !runs < config.max_runs then
              go (prefix @ List.init (d - List.length prefix) (fun _ -> 0) @ [ alt ])
          done)
        decisions
    end
  in
  go [];
  {
    runs = !runs;
    max_depth = !max_depth;
    failures = List.rev !failures;
    stale_hits = !hits;
    proved_in_flight = !proved;
    unordered_latent = !latent;
    genuine = !genuine;
  }

(* Each scenario's exploration is an independent pure function of its
   builder (fresh machine per run, replay instead of shared state), so a
   sweep over scenarios shards perfectly: one pool task per scenario,
   results slotted in input order. Explorations are similarly sized, so
   plain in-order claiming beats weighted LPT here. *)
let explore_set ?(config = default_config) ~jobs builds =
  Array.to_list
    (Domain_pool.run ~jobs
       (Array.of_list (List.map (fun build () -> explore ~config build) builds)))

let pp_result fmt r =
  Format.fprintf fmt
    "%d run(s), %d decision point(s) deep, %d stale hit(s) (%d proved in-flight, %d \
     unordered, %d genuine), %d failure(s)@."
    r.runs r.max_depth r.stale_hits r.proved_in_flight r.unordered_latent r.genuine
    (List.length r.failures);
  List.iter
    (fun f ->
      Format.fprintf fmt "  FAIL [prefix %s]: %s@."
        (String.concat "," (List.map string_of_int f.fail_prefix))
        f.fail_what)
    r.failures
