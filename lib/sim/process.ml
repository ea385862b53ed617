open Effect
open Effect.Deep

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, inner) ->
        Some (Printf.sprintf "Process %S failed: %s" name (Printexc.to_string inner))
    | _ -> None)

(* The three ways a process suspends. None carries a payload: a constant
   constructor is a static value, so [perform] allocates nothing but the
   continuation. [delay] and [tick_sleep] leave their argument
   on the engine ([Engine.set_arg_cycles] / [set_arg_step]) just before
   performing, and the process's handler reads it straight back.

   - [Sleep]: resume after [Engine.arg_cycles] cycles, or when the idle
     spin [Engine.spin] staged wakes ([Engine.suspend] queues either).
   - [Tick]: sleep [arg_cycles], then consult the step function
     ([arg_step]) at that boundary and at each later one, from inside the
     engine handler. [step () = 0] resumes the process at the current
     boundary; [step () = d] sleeps [d] more cycles without resuming. One
     suspension thus spans any run of boundaries — idle poll ticks, or
     work that never suspends, such as a run of cacheline charges: every
     boundary is still its own engine event at exactly the time a chain
     of [delay]s would produce (so event counts, timestamps and seq order
     are unchanged), but it re-arms allocation-free instead of paying a
     continuation resume and capture.
   - [Park]: stay suspended until [wake] names the process's tag. *)
type _ Effect.t += Sleep : unit Effect.t | Tick : unit Effect.t | Park : unit Effect.t

(* Everything a process needs between suspensions, in one record. The
   engine handler registered at spawn dispatches on the event's [a]:
   0 resumes from a sleep, 1 runs a tick boundary, 2 starts the body and
   3 wakes a parked process. A process releases its tag when it completes
   (it cannot be suspended while it runs, so no event can still carry the
   tag). *)
type proc = {
  engine : Engine.t;
  name : string;
  mutable tag : int;
  mutable k : (unit, unit) continuation option;
  mutable step : unit -> int;
  mutable parked : bool;
}

let no_step () = invalid_arg "Process: tick without a step"

(* Run [f x] with [p] as the engine's current process. Restores by hand
   instead of Fun.protect: this runs once per resumed suspension, squarely
   on the hot path, and the protect pair is two allocations. *)
let as_current p f x =
  let e = p.engine in
  let name = Engine.current_name e and tag = Engine.current_tag e in
  Engine.set_current e ~name:p.name ~tag:p.tag;
  match f x with
  | () -> Engine.set_current e ~name ~tag
  | exception ex ->
      Engine.set_current e ~name ~tag;
      raise ex

let continue_unit k = continue k ()

let resume p =
  match p.k with
  | None -> invalid_arg (Printf.sprintf "Process %s resumed twice" p.name)
  | Some k ->
      p.k <- None;
      as_current p continue_unit k

(* Drive one poll boundary of a [Tick] suspension. Mirrors what the
   resumed process itself would do after a plain sleep: consult the
   condition, and either continue (here: [resume]), skip ahead through an
   empty window ([try_advance], exactly like [delay]'s fast path), or
   schedule the next boundary. *)
let rec tick p =
  let d = p.step () in
  if d = 0 then begin
    p.step <- no_step;
    resume p
  end
  else if d < 0 then invalid_arg "Process.tick_sleep: negative interval"
  else if Engine.try_advance p.engine ~cycles:d then tick p
  else Engine.schedule_tag p.engine ~delay:d ~tag:p.tag ~a:1 ~b:0

let wake_parked p =
  if not p.parked then invalid_arg (Printf.sprintf "Process %s resumed twice" p.name);
  p.parked <- false;
  resume p

(* Build a process and register its engine handler without starting it;
   an [a = 2] event on [p.tag] runs [f] from the top. *)
let create engine ~name f =
  let p = { engine; name; tag = -1; k = None; step = no_step; parked = false } in
  (* Built once per process, so [effc] returns a preallocated handler and
     a suspension allocates only the continuation and its [Some] slot. *)
  let on_sleep =
    Some
      (fun k ->
        p.k <- Some k;
        Engine.note_suspension ();
        Engine.suspend engine ~tag:p.tag)
  in
  let on_tick =
    Some
      (fun k ->
        p.k <- Some k;
        Engine.note_suspension ();
        p.step <- Engine.arg_step engine;
        Engine.schedule_tag engine ~delay:(Engine.arg_cycles engine) ~tag:p.tag ~a:1 ~b:0)
  in
  let on_park =
    Some
      (fun k ->
        p.k <- Some k;
        Engine.note_suspension ();
        p.parked <- true)
  in
  let handler =
    {
      retc = (fun () -> Engine.release_handler engine p.tag);
      exnc =
        (fun e ->
          Engine.release_handler engine p.tag;
          raise (Process_failure (name, e)));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep -> on_sleep
          | Tick -> on_tick
          | Park -> on_park
          | _ -> None);
    }
  in
  let run () = match_with f () handler in
  p.tag <-
    Engine.register_handler engine (fun a _ ->
        match a with
        | 0 -> resume p
        | 1 -> tick p
        | 2 -> as_current p run ()
        | _ -> wake_parked p);
  p

let start p = Engine.schedule_tag p.engine ~delay:0 ~tag:p.tag ~a:2 ~b:0
let spawn engine ~name f = start (create engine ~name f)

let sleep engine cycles =
  Engine.set_arg_cycles engine cycles;
  perform Sleep

let delay engine cycles =
  if cycles < 0 then invalid_arg "Process.delay: negative delay";
  if cycles = 0 || Engine.try_advance engine ~cycles then () else sleep engine cycles

(* [tick_sleep]'s fast path, identical to [delay]'s: while the window
   ahead is empty, advance the clock synchronously and consult [step]
   without ever suspending. Only when another event interleaves does the
   span suspend — once — and hand the remaining boundaries to the
   spawn-registered tick handler. A top-level function, so a call
   allocates no closure. *)
let rec tick_fast engine step d =
  if Engine.try_advance engine ~cycles:d then begin
    let d' = step () in
    if d' < 0 then invalid_arg "Process.tick_sleep: negative interval"
    else if d' > 0 then tick_fast engine step d'
  end
  else begin
    Engine.set_arg_cycles engine d;
    Engine.set_arg_step engine step;
    perform Tick
  end

let tick_sleep engine ~first step =
  if first <= 0 then invalid_arg "Process.tick_sleep: nonpositive first interval";
  tick_fast engine step first

let chain engine step =
  let d = step () in
  if d < 0 then invalid_arg "Process.chain: negative interval"
  else if d > 0 then tick_fast engine step d

let spin engine ~quantum ~chunk ~left wq wc =
  let r = Engine.spin engine ~quantum ~chunk ~left wq wc in
  if r <> Engine.spin_pending then r
  else begin
    perform Sleep;
    Engine.spin_result engine
  end

let self_tag engine =
  let tag = Engine.current_tag engine in
  if tag < 0 then invalid_arg "Process.self_tag: not inside a process";
  tag

let park () = perform Park
let wake engine tag = Engine.schedule_tag engine ~delay:0 ~tag ~a:3 ~b:0
