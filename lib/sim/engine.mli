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

(** Process effect suspensions so far on the calling domain, over all its
    engines: every [Sleep], [Tick] and [Park] a {!Process} performed. A
    suspension is a fiber capture and a later resume, the dearest thing a
    process does, so this counts what the [try_advance] fast path, idle
    spins, charge runs ({!Process.chain_cpus}) and step-function IRQ
    handlers exist to avoid. Every suspension happens inside {!run}, {!run_until} or
    {!step}, so the difference of two reads around a run on one domain is
    exactly that run's count, whatever other domains do. *)
val suspensions : unit -> int

(** Count one suspension; {!Process} calls it as a process suspends. *)
val note_suspension : unit -> unit

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
    identical either way. A window that holds only idle spin boundaries
    (see {!spin}) none of which wakes its spin does not stop it: those
    boundaries run, in key order, before the clock moves, and the advance
    counts as the event the caller's resume would have been (in
    {!events_run}, not {!advances}), since that is what it replaces. When
    every slice of those spins is one quantum (it divides the chunk and
    what is left of it), their boundaries are counted rather than
    visited, at a cost independent of the window's length, with the same
    counts and order. So a process may run ahead of other spins for as
    long as none of them wakes, but never past the time of a {!run_until}
    in progress. *)
val try_advance : t -> cycles:int -> bool

(** {2 Idle spins}

    A process waiting out a fixed schedule of slices until a condition
    holds: compute quanta, ack polls, a driver's op wait. The schedule is
    slices of [min quantum l] cycles, where [l] is what is left of the
    current chunk; a chunk that ends without waking restarts at [chunk]
    cycles. At each slice boundary the spin wakes if [wq ()] holds; at a
    chunk end it then also wakes if [wc ()] holds. Times, event counts and
    same-time order are exactly those of the process calling
    [Process.delay] for each slice and testing the predicates itself: a
    boundary is an event where that delay would have suspended and an
    advance where it would have taken the fast path. But a boundary that
    does not wake costs no row, no dispatch and no process resume, and
    {!try_advance} steps through windows that hold only such boundaries.

    The contract that makes this exact: [wq] and [wc] are pure — they
    change nothing another predicate or process reads — and they read no
    clock ({!now}) and no current process, because a boundary may be
    decided before its time, from another process's {!try_advance}, and
    once for a whole window. A deadline is therefore not a clock test but
    the end of a chunk: round the wait up to whole slices and let [wc]
    hold. Exceptions from a predicate escape the engine loop. Under a
    chooser a spin's boundaries are plain events, so the explorer sees
    each one. *)

(** [spin t ~quantum ~chunk ~left wq wc] starts a spin whose first chunk
    has [left] cycles (all three positive). Boundaries whose windows are
    free run at once in the caller; the result is then final: [r >= 0]
    when [wq] woke it with [r] cycles of its chunk left (0 at a chunk
    end), [-1] when [wc] woke it at a chunk end. Otherwise it returns
    {!spin_pending}: the spin is staged, and the caller must suspend at
    once with a [Sleep]-style effect whose handler calls {!suspend}; when
    the spin wakes, its tag's handler is called with [(0, 0)] and
    {!spin_result} holds the answer. {!Process.spin} wraps all of it. *)
val spin :
  t -> quantum:int -> chunk:int -> left:int -> (unit -> bool) -> (unit -> bool) -> int

val spin_pending : int

(** The answer of the spin that last woke from a suspension, as {!spin}
    returns it. *)
val spin_result : t -> int

(** The cycles of the slices the spin that last ended waited out: its
    elapsed time, except under a chooser, where a boundary that runs late
    does not lengthen its slice. *)
val spin_spun : t -> int

(** [suspend t ~tag] queues the suspension the running process [tag] is
    making: the spin {!spin} staged, else a wake-up of the tag's handler
    with [(0, 0)] after {!arg_cycles}. *)
val suspend : t -> tag:int -> unit

(** Execute the earliest pending event. Returns [false] when none remain. *)
val step : t -> bool

(** Run until no events remain. *)
val run : t -> unit

(** Run until the queue is empty or the clock passes [time]. Events at
    exactly [time] are executed. [time] is a horizon: while it runs,
    neither {!try_advance} nor a spin's run of boundaries moves the clock
    past it, so the call returns even when spins that never wake are all
    that is pending. {!run} and {!step} have no horizon. *)
val run_until : t -> time:int -> unit

(** Event rows not on the arena's free list: the pending events, plus any
    row a dispatch failed to give back; a pending idle spin counts as the
    row it stands for. 0 once {!run} has drained the queue. Walks the free
    list, so it costs O(arena rows): an end-of-run check, not a hot-path
    counter. *)
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
    a process carry no payload, so the suspending code stores the delay
    here just before it performs the effect, and the process's handler
    reads it back before anything else runs on this engine. Setting the
    delay unstages any staged spin. *)
val arg_cycles : t -> int

val set_arg_cycles : t -> int -> unit

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
