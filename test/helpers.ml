(* Helpers shared by several test suites. *)

(* Run [f] at [now + delay] through the engine's tagged dispatch: a
   handler registered for this one event, released when it fires. *)
let schedule e ~delay f =
  let tag = ref (-1) in
  tag :=
    Engine.register_handler e (fun _ _ ->
        Engine.release_handler e !tag;
        f ());
  Engine.schedule_tag e ~delay ~tag:!tag ~a:0 ~b:0

(* Post [irq] to every CPU in [targets] through the APIC's send path, as
   the shootdown protocol does: register the irq, then multicast to the
   target set. Returns the sender's cost. *)
let send_ipi apic ~from ~targets irq =
  let set = Cpuset.create ~bits:0 in
  List.iter (Cpuset.set set) targets;
  Apic.send_ipi_id apic ~from ~targets:set ~irq_id:(Apic.register_irq apic irq)

(* A kernel-context process on [cpu]: it occupies the CPU in kernel mode
   and touches no address-space state. *)
let spawn_kernel m ~cpu ~name body =
  Process.spawn m.Machine.engine ~name (fun () ->
      let cpu_t = Machine.cpu m cpu in
      Cpu.occupy cpu_t;
      Cpu.set_in_user cpu_t false;
      Fun.protect ~finally:(fun () -> Cpu.vacate cpu_t) body)

(* An IRQ whose handler calls [f] at its start, takes [cycles] (none by
   default) and then calls [at_end]: the step-function form of a handler
   [f cpu; Process.delay e cycles; at_end cpu]. The CPU counts the
   handler's phase, so one record may run on several CPUs at once. *)
let irq ?(maskable = true) ?(cycles = 0) ?(at_end = ignore) vector f =
  let step cpu k =
    if k = 0 then begin
      f cpu;
      cycles
    end
    else begin
      at_end cpu;
      -1
    end
  in
  { Cpu.vector; maskable; step }
