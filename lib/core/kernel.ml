let spawn_user m ~cpu ~mm ~name body =
  Process.spawn m.Machine.engine ~name (fun () ->
      let cpu_t = Machine.cpu m cpu in
      Cpu.occupy cpu_t;
      Fun.protect
        ~finally:(fun () ->
          Cpu.set_in_user cpu_t false;
          Sched.unload m ~cpu;
          Cpu.vacate cpu_t)
        (fun () ->
          Sched.switch_mm m ~cpu mm;
          Shootdown.return_to_user m ~cpu ~has_stack:true;
          body ()))

let run m = Machine.run m

let check_quiescent m add_failure =
  let checker = m.Machine.checker in
  let v = Checker.violation_count checker in
  if v > 0 then add_failure (Printf.sprintf "checker recorded %d violation(s)" v);
  let w = Checker.open_windows checker in
  if w > 0 then add_failure (Printf.sprintf "%d invalidation window(s) open at quiescence" w);
  Machine.ipi_invariants m add_failure;
  for cpu = 0 to Machine.n_cpus m - 1 do
    let pcpu = Machine.percpu m cpu in
    if not (Percpu.no_pending_user pcpu.Percpu.pending_user) then
      add_failure (Printf.sprintf "cpu%d: deferred user flush survives quiescence" cpu);
    if not (Queue.is_empty pcpu.Percpu.csq) then
      add_failure (Printf.sprintf "cpu%d: undrained call queue at quiescence" cpu);
    if pcpu.Percpu.inflight_flush then
      add_failure (Printf.sprintf "cpu%d: inflight-flush flag stuck at quiescence" cpu);
    if not (List.is_empty pcpu.Percpu.batch) then
      add_failure (Printf.sprintf "cpu%d: unflushed batched shootdowns at quiescence" cpu);
    Shootdown.protocol_quiescent m ~cpu add_failure
  done;
  let rows = Engine.live_rows m.Machine.engine in
  if rows > 0 then
    add_failure
      (Printf.sprintf "engine arena: %d event row(s) not back on the free list" rows)

let check_run m ~who =
  (match Checker.violations m.Machine.checker with
  | [] -> ()
  | v :: _ ->
      failwith (Format.asprintf "%s: TLB coherence violation: %a" who Checker.pp_violation v));
  let failures = ref [] in
  check_quiescent m (fun what -> failures := what :: !failures);
  if not (List.is_empty !failures) then
    failwith (who ^ ": " ^ String.concat "; " (List.rev !failures))
