(* The brackets around every PTE change (see kernel.mli). An exception
   from a clean-up escapes wrapped in [Fun.Finally_raised]. *)
let cleanup_raised e =
  let bt = Printexc.get_raw_backtrace () in
  Printexc.raise_with_backtrace (Fun.Finally_raised e) bt

let exit_thread m ~cpu cpu_t =
  try
    Cpu.set_in_user cpu_t false;
    Sched.unload m ~cpu;
    Cpu.vacate cpu_t
  with e -> cleanup_raised e

let spawn_user m ~cpu ~mm ~name body =
  Process.spawn m.Machine.engine ~name (fun () ->
      let cpu_t = Machine.cpu m cpu in
      Cpu.occupy cpu_t;
      match
        Sched.switch_mm m ~cpu mm;
        Shootdown.return_to_user m ~cpu ~has_stack:true;
        body ()
      with
      | () -> exit_thread m ~cpu cpu_t
      | exception ex ->
          let bt = Printexc.get_raw_backtrace () in
          exit_thread m ~cpu cpu_t;
          Printexc.raise_with_backtrace ex bt)

let syscall_exit m ~cpu =
  try
    Machine.delay m (Costs.syscall_exit m.Machine.costs ~safe:m.Machine.opts.Opts.safe);
    Shootdown.return_to_user m ~cpu ~has_stack:true
  with e -> cleanup_raised e

let in_syscall m ~cpu f =
  Cpu.set_in_user (Machine.cpu m cpu) false;
  Machine.delay m (Costs.syscall_entry m.Machine.costs ~safe:m.Machine.opts.Opts.safe);
  match f () with
  | v ->
      syscall_exit m ~cpu;
      v
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      syscall_exit m ~cpu;
      Printexc.raise_with_backtrace ex bt

let enter_service m ~cpu =
  let cpu_t = Machine.cpu m cpu in
  let was_user = Cpu.in_user cpu_t in
  Cpu.set_in_user cpu_t false;
  was_user

(* Returning to user runs the full IRQ-disabled exit protocol, so the
   user-PCID flushes the service's shootdowns deferred cannot be skipped
   by a racing IPI. *)
let leave_service m ~cpu ~was_user =
  if was_user then
    try Shootdown.return_to_user m ~cpu ~has_stack:true with e -> cleanup_raised e

let in_service m ~cpu f =
  let was_user = enter_service m ~cpu in
  match f () with
  | v ->
      leave_service m ~cpu ~was_user;
      v
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      leave_service m ~cpu ~was_user;
      Printexc.raise_with_backtrace ex bt

(* loc begin: batching *)
(* A batched section (§4.2: msync, munmap, madvise(DONTNEED), fdatasync)
   puts the CPU in batched mode while it holds mmap_sem: its own flushes
   defer to the release, and other initiators may skip IPI-ing it. *)
let lock_mmap m ~cpu ~mm ~write ~batched =
  let sem = Mm_struct.mmap_sem mm in
  if write then Rwsem.down_write sem else Rwsem.down_read sem;
  if batched && (Opts.knobs m.Machine.opts).Opts.userspace_batching then
    (Machine.percpu m cpu).Percpu.batched_mode <- true

(* The batch is flushed before anyone sees the semaphore released;
   releasing it only queues wakes, so whatever the caller does next still
   comes first. *)
let unlock_mmap m ~cpu ~mm ~write ~batched =
  try
    if batched then Shootdown.flush_batched m ~from:cpu ~mm;
    let sem = Mm_struct.mmap_sem mm in
    if write then Rwsem.up_write sem else Rwsem.up_read sem
  with e -> cleanup_raised e
(* loc end: batching *)

let in_mmap_sem m ~cpu ~mm ~write ~batched f =
  lock_mmap m ~cpu ~mm ~write ~batched;
  match f () with
  | v ->
      unlock_mmap m ~cpu ~mm ~write ~batched;
      v
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      unlock_mmap m ~cpu ~mm ~write ~batched;
      Printexc.raise_with_backtrace ex bt

let range_info mm ~start_vpn ~pages =
  Flush_info.ranged ~mm_id:(Mm_struct.id mm) ~start_vpn ~pages
    ~new_tlb_gen:(Mm_struct.tlb_gen mm) ()

let close_window m ~cpu (info : Flush_info.t) token =
  try Machine.end_window m ~cpu ~mm_id:info.Flush_info.mm_id token
  with e -> cleanup_raised e

let in_window m ~cpu info f =
  let token = Machine.begin_window m ~cpu info in
  match f () with
  | v ->
      close_window m ~cpu info token;
      v
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      close_window m ~cpu info token;
      Printexc.raise_with_backtrace ex bt

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
