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
   continuation. The argument goes on the engine
   ([Engine.set_arg_cycles]) just before performing, and a suspending
   charge run leaves its place in the domain's staged [run]; the
   process's handler reads them straight back.

   - [Sleep]: resume after [Engine.arg_cycles] cycles, or when the idle
     spin [Engine.spin] staged wakes ([Engine.suspend] queues either).
   - [Tick]: a charge run suspends. Sleep [arg_cycles], then run the
     run's boundaries from inside the engine handler, each at its own
     engine event at exactly the time a chain of [delay]s would give (so
     event counts, timestamps and seq order are unchanged), re-arming
     allocation-free instead of paying a continuation resume and capture,
     and resume the process when the run is over.
   - [Park]: stay suspended until [wake] names the process's tag. *)
type _ Effect.t += Sleep : unit Effect.t | Tick : unit Effect.t | Park : unit Effect.t

(* A charge run's place between its boundaries: the items (the members of
   [set] when [n < 0], else [0 .. n - 1]), the visit, and the next (item,
   phase), with [at = -1] past the last item. [visit] is [no_visit] while
   no run holds the record. *)
type run = {
  mutable set : Cpuset.t;
  mutable n : int;
  mutable phases : int;
  mutable visit : int -> int -> int;
  mutable at : int;
  mutable phase : int;
}

let no_set = Cpuset.create ~bits:0
let no_visit (_ : int) (_ : int) = -1
let new_run () = { set = no_set; n = 0; phases = 1; visit = no_visit; at = -1; phase = 0 }

(* Stands in for the run record of a process that has not suspended a
   run yet; never written. *)
let no_run = new_run ()

(* Where a run about to suspend leaves its place. The [Tick] handler swaps
   the staged record into its process and stages the process's idle one
   in its place, so a suspended run allocates nothing once its process
   has a record. Per domain: nothing runs between the staging and the
   [perform], and an engine runs on one domain. *)
let staged_key = Domain.DLS.new_key (fun () -> ref (new_run ()))

(* The initial value of every process's continuation field: captured once
   here, from an effect performed for that purpose, and never resumed. A
   process keeps its continuation in a plain field, holding [no_k]
   whenever it has no live one, so a suspension allocates only the
   runtime's continuation and no [Some] cell around it. *)
type _ Effect.t += Capture : unit Effect.t

let no_k : (unit, unit) continuation =
  let captured = ref None in
  match_with perform Capture
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Capture -> Some (fun (k : (unit, unit) continuation) -> captured := Some k)
          | _ -> None);
    };
  match !captured with Some k -> k | None -> assert false

(* Everything a process needs between suspensions, in one record. The
   engine handler registered at spawn dispatches on the event's [a]:
   0 resumes from a sleep, 1 runs a charge-run boundary, 2 starts the body
   and 3 wakes a parked process. A process releases its tag when it
   completes (it cannot be suspended while it runs, so no event can still
   carry the tag). *)
type proc = {
  engine : Engine.t;
  name : string;
  mutable tag : int;
  mutable k : (unit, unit) continuation; (* [no_k] while none is live *)
  mutable run : run; (* its suspended run's place; [no_run] until the first *)
  mutable parked : bool;
}

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
  let k = p.k in
  if k == no_k then invalid_arg (Printf.sprintf "Process %s resumed twice" p.name);
  p.k <- no_k;
  as_current p continue_unit k

let keep p k =
  p.k <- k;
  Engine.note_suspension ()

let next_item set n at =
  if n < 0 then Cpuset.next set (at + 1) else if at + 1 < n then at + 1 else -1

let finish r =
  r.visit <- no_visit;
  r.set <- no_set;
  -1

(* A suspended run's next boundary: the visits due now, then the cost of
   the next boundary, or -1 once the run is over. *)
let rec next r =
  if r.at < 0 then finish r
  else begin
    let d = r.visit r.at r.phase in
    if d < 0 then finish r
    else begin
      if r.phase + 1 < r.phases then r.phase <- r.phase + 1
      else begin
        r.phase <- 0;
        r.at <- next_item r.set r.n r.at
      end;
      if d > 0 then d else next r
    end
  end

(* One boundary of a suspended run, in the engine: what the resumed
   process would do after a plain sleep, without resuming it — run the
   visits due, then skip ahead through an empty window ([try_advance],
   exactly like [delay]'s fast path) or schedule the next boundary.
   The end of the run resumes the process. *)
let rec tick p =
  let d = next p.run in
  if d < 0 then resume p
  else if Engine.try_advance p.engine ~cycles:d then tick p
  else Engine.schedule_tag p.engine ~delay:d ~tag:p.tag ~a:1 ~b:0

let wake_parked p =
  if not p.parked then invalid_arg (Printf.sprintf "Process %s resumed twice" p.name);
  p.parked <- false;
  resume p

(* Build a process and register its engine handler without starting it;
   an [a = 2] event on [p.tag] runs [f] from the top. *)
let create engine ~name f =
  let p = { engine; name; tag = -1; k = no_k; run = no_run; parked = false } in
  (* Built once per process, so [effc] returns a preallocated handler and
     a suspension allocates only the continuation. *)
  let on_sleep =
    Some
      (fun k ->
        keep p k;
        Engine.suspend engine ~tag:p.tag)
  in
  let on_tick =
    Some
      (fun k ->
        keep p k;
        let staged = Domain.DLS.get staged_key in
        let r = !staged in
        staged := if p.run == no_run then new_run () else p.run;
        p.run <- r;
        Engine.schedule_tag engine ~delay:(Engine.arg_cycles engine) ~tag:p.tag ~a:1 ~b:0)
  in
  let on_park =
    Some
      (fun k ->
        keep p k;
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

(* A charge run in its process: [d] is the cost due before phase [phase]
   of item [at]. While each cost's window is empty the run goes on inline,
   as [delay]'s fast path does, and allocates nothing. At the first window
   that is not, it stages its place and suspends, once; [tick] runs the
   rest. *)
let rec walk engine set n phases visit at phase d =
  if d > 0 && not (Engine.try_advance engine ~cycles:d) then begin
    let r = !(Domain.DLS.get staged_key) in
    r.set <- set;
    r.n <- n;
    r.phases <- phases;
    r.visit <- visit;
    r.at <- at;
    r.phase <- phase;
    Engine.set_arg_cycles engine d;
    perform Tick
  end
  else if at >= 0 then begin
    let d = visit at phase in
    if d < 0 then ()
    else if phase + 1 < phases then walk engine set n phases visit at (phase + 1) d
    else walk engine set n phases visit (next_item set n at) 0 d
  end

let chain_cpus engine ~lead set ~phases visit =
  walk engine set (-1) phases visit (Cpuset.next set 0) 0 lead

let chain_upto engine ~lead n ~phases visit =
  walk engine no_set n phases visit (if n > 0 then 0 else -1) 0 lead

let chain_item engine ~lead item visit =
  walk engine no_set (item + 1) max_int visit item 0 lead

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
