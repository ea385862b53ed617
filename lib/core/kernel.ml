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

let spawn_kernel m ~cpu ~name body =
  Process.spawn m.Machine.engine ~name (fun () ->
      let cpu_t = Machine.cpu m cpu in
      Cpu.occupy cpu_t;
      Cpu.set_in_user cpu_t false;
      Fun.protect ~finally:(fun () -> Cpu.vacate cpu_t) body)

let spawn_idle m ~cpu ~until =
  spawn_kernel m ~cpu ~name:(Printf.sprintf "idle%d" cpu) (fun () ->
      let cpu_t = Machine.cpu m cpu in
      while not (until ()) do
        Cpu.idle_wait cpu_t
      done)

let run m = Machine.run m

let check_run m ~who =
  Machine.check_run m ~who;
  let fail what = failwith (who ^ ": " ^ what) in
  for cpu = 0 to Machine.n_cpus m - 1 do
    Shootdown.protocol_quiescent m ~cpu fail
  done
