(** Discrete-event simulation engine.

    Time is a monotonically increasing integer cycle counter. Events
    scheduled for the same instant fire in insertion order, which makes every
    simulation deterministic.

    Internally the priority key packs [(time, seq)] into a single int, so
    heap ordering is one native comparison; see the implementation notes.
    Simulated time may not exceed [2^38 - 1] cycles (ample: the full paper
    evaluation stays below [2^31]): scheduling and [run_until] reject later
    times, and the [try_advance] fast path declines to move [now] past
    it, so the packed key's time field never wraps into the sequence
    bits. *)

type t

val create : unit -> t

(** Current simulated time in cycles. *)
val now : t -> int

(** Number of events executed so far. *)
val events_run : t -> int

(** Number of suspend-free clock advances (the [try_advance] fast path). *)
val advances : t -> int

(** Process effect suspensions so far: every [Sleep], [Tick] and [Park]
    a {!Process} performed on this engine. A suspension is a fiber
    capture and a later resume, the dearest thing a process does, so this
    counts what the [try_advance] fast path, tick fusion and
    {!Process.chain} exist to avoid. *)
val suspensions : t -> int
[@@tlblint.allow "R5 state accessor: tests pin suspension counts through it"]

(** Count one suspension; {!Process} calls it as a process suspends. *)
val note_suspension : t -> unit

(** Engine operations so far: [events_run + advances]. Per-engine by
    design — each simulation run owns its engine, so a harness attributes
    ops to a run by reading this after the run and sums across runs at
    reduce time. There is no process-wide counter: a global meter would
    force perf attribution to run one experiment at a time and would
    report 0 for experiments that reuse memoized results. *)
val ops : t -> int

(** {2 Tagged dispatch}

    An event carries no closure. A caller that schedules the same logical
    callback over and over (a process's sleep-resume, APIC IPI delivery,
    deferred TLB flushes) registers a handler once, then schedules by
    integer tag with two unboxed [int] arguments stored in the pooled
    event itself, so scheduling is allocation-free at steady state. *)

(** [register_handler t f] installs [f] in the engine's dispatch table and
    returns its tag. Tags are small dense ints (released tags are reused). *)
val register_handler : t -> (int -> int -> unit) -> int

(** Release a tag for reuse. The caller must ensure no event carrying the
    tag is still pending — the slot may be reassigned by the next
    [register_handler], and a stale event would dispatch to the wrong
    handler. (Dispatching a released-but-unreassigned tag raises.) *)
val release_handler : t -> int -> unit

(** [schedule_tag t ~delay ~tag ~a ~b] runs [handler a b] at
    [now t + delay], where [handler] is the function registered under
    [tag]. Raises [Invalid_argument] on a negative delay or a tag that was
    never registered. Allocation-free at steady state. *)
val schedule_tag : t -> delay:int -> tag:int -> a:int -> b:int -> unit

(** [try_advance t ~cycles] advances the clock by [cycles] and returns
    [true] iff no pending event would fire at or before the new time and no
    chooser is installed. Used by [Process.delay] to skip the
    suspend/reschedule round-trip for uncontended sleeps; behaviour is
    identical either way. *)
val try_advance : t -> cycles:int -> bool

(** Execute the earliest pending event. Returns [false] when none remain. *)
val step : t -> bool

(** Run until no events remain. *)
val run : t -> unit

(** Run until the queue is empty or the clock passes [time]. Events at
    exactly [time] are executed. *)
val run_until : t -> time:int -> unit

(** Event rows not on the arena's free list: the pending events, plus any
    row a dispatch failed to give back. 0 once {!run} has drained the
    queue. Walks the free list, so it costs O(arena rows): an end-of-run
    check, not a hot-path counter. *)
val live_rows : t -> int

(** {2 Process support}

    State {!Process} keeps per engine rather than in globals, so
    independent machines can run on separate domains. *)

(** Name of the cooperative process currently executing on this engine
    ("main" outside any process). *)
val current_name : t -> string

(** Handler tag of the process currently executing on this engine; [-1]
    outside any process. *)
val current_tag : t -> int

val set_current : t -> name:string -> tag:int -> unit

(** The argument of the next process suspension. The effects that suspend
    a process carry no payload, so the suspending code stores the delay,
    and a tick's step function, here just before it performs the effect,
    and the process's handler reads them back before anything else runs
    on this engine. *)
val arg_cycles : t -> int

val set_arg_cycles : t -> int -> unit
val arg_step : t -> unit -> int
val set_arg_step : t -> (unit -> int) -> unit

(** Install a scheduling chooser: whenever more than one pending event falls
    within [horizon] cycles of the earliest one, [choose n] is called with
    the candidate count and returns the index (in (time, seq) order) of the
    event to fire next; out-of-range answers fall back to 0. The clock is
    clamped monotone, so choosing a later candidate makes overtaken events
    run "late" at the current time — the interleaving explorer's model of
    timing variance. No chooser (the default) is the strict deterministic
    (time, seq) order with zero overhead. While a chooser is installed the
    {!try_advance} fast path is disabled, so the explorer sees every
    scheduling decision point. *)
val set_chooser : t -> ?horizon:int -> (int -> int) -> unit

val clear_chooser : t -> unit
