(** Direct-style simulated processes on top of OCaml 5 effect handlers.

    A process is ordinary OCaml code that may call {!delay},
    {!tick_sleep} and {!park}; the handler installed by {!spawn}
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

(** [tick_sleep engine ~first step] sleeps [first] cycles (> 0), then calls
    [step ()] at that boundary and at each subsequent one: a return of [0]
    resumes the process at the current boundary, [d > 0] sleeps [d] more
    cycles first. Behaviour — event times, event counts and same-cycle
    ordering — is exactly that of the process doing, at each boundary,
    what [step] does and then calling [delay d], but the whole run costs
    at most one effect suspension instead of one continuation
    capture/resume (and its allocations) per boundary: the boundaries are
    handled inside the engine event.

    So [step] may do the work due at its boundary — poll a condition,
    charge a cacheline, invalidate a TLB entry — as long as it never
    suspends. It must not call {!delay}, {!park} or anything
    built on them ([Waitq], a machine's [charge_*]), and it must not read
    {!Engine.current_name} or {!self_tag}: after the first boundary it runs outside
    the process. A cost that is zero is not a boundary ([delay 0] makes no
    event), so a step with zero-cost work must go straight on to its next
    action instead of returning [0]. An exception raised by [step] at a
    boundary escapes the engine loop unwrapped, not as
    {!Process_failure}. Must only be called from process context. *)
val tick_sleep : Engine.t -> first:int -> (unit -> int) -> unit

(** [chain engine step] runs [step ()] now; a return of [0] ends the chain,
    and [d > 0] continues exactly as [tick_sleep engine ~first:d step].
    This is how a run of charges is written: each step does the work due
    at its boundary and returns the cost of the next one, so the run
    suspends the process at most once, where a [delay] per charge would
    suspend it once per charge whenever another event falls inside the
    window. Same rules for [step] as {!tick_sleep}. *)
val chain : Engine.t -> (unit -> int) -> unit

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
