(** Direct-style simulated processes on top of OCaml 5 effect handlers.

    A process is ordinary OCaml code that may call {!delay},
    {!tick_sleep}, {!yield} and {!park}; the handler installed by {!spawn}
    turns those into engine events, so protocol code reads sequentially
    ("flush, then wait for the ack") while the engine interleaves many
    processes deterministically.

    A suspension allocates only the continuation and the slot that holds
    it: the effects carry no payload, each process builds its handlers
    once, and every resume is a tagged engine event. The suspension's
    argument travels through the engine, so a process must pass the
    engine it was spawned on. *)

exception Process_failure of string * exn

(** A spawned process raised; carries the process name and the exception. *)

(** [spawn engine ~name f] starts [f] as a process at the current time.
    Exceptions escaping [f] are wrapped in {!Process_failure} and re-raised
    out of the engine loop. *)
val spawn : Engine.t -> name:string -> (unit -> unit) -> unit

(** Advance this process's local time by [cycles] (>= 0). When no pending
    event falls inside the window this is a plain clock bump
    ({!Engine.try_advance}) with no suspend; behaviour is identical either
    way. *)
val delay : Engine.t -> int -> unit

(** Re-enter the event queue at the current instant, letting other events at
    this time run first. *)
val yield : Engine.t -> unit

(** [tick_sleep engine ~first step] sleeps [first] cycles (> 0), then calls
    [step ()] at that boundary and at each subsequent one: a return of [0]
    resumes the process at the current boundary, [d > 0] sleeps [d] more
    cycles first. Behaviour — event times, event counts and same-cycle
    ordering — is exactly that of the equivalent chain of {!delay} calls
    re-checking a condition between sleeps, but a run of idle boundaries
    costs one effect suspension total instead of one continuation
    capture/resume (and its allocations) per boundary: idle boundaries are
    handled inside the engine event, allocation-free. [step] must be free
    of observable side effects when it returns nonzero (private cursor
    movement is fine), because the process is not resumed for that
    boundary. Must only be called from process context. *)
val tick_sleep : Engine.t -> first:int -> (unit -> int) -> unit

(** Name of the process currently running on [engine] ("main" outside any
    process). Per-engine rather than global so independent machines can run
    on separate domains. *)
val self_name : Engine.t -> string

(** {2 Parking}

    The blocking primitive under {!Waitq}: a process hands its tag to
    whoever will wake it, then parks. *)

(** Handler tag of the process running on [engine]. Raises
    [Invalid_argument] outside any process. *)
val self_tag : Engine.t -> int

(** Suspend the calling process until a {!wake} names its tag. Must only be
    called from process context. *)
val park : unit -> unit

(** [wake engine tag] resumes the parked process [tag] at the current
    instant, after the events already due now. The wake is an engine
    event; if the process is not parked when it fires (a second wake for
    one park), it raises [Invalid_argument "Process NAME resumed twice"]
    and leaves the process alone. *)
val wake : Engine.t -> int -> unit
