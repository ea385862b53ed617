(** Direct-style simulated processes on top of OCaml 5 effect handlers.

    A process is ordinary OCaml code that may call {!delay}, a charge
    run ({!chain_cpus} and friends) and {!park}; the handler installed by {!spawn}
    turns those into engine events, so protocol code reads sequentially
    ("flush, then wait for the ack") while the engine interleaves many
    processes deterministically.

    A suspension allocates only the continuation and the slot that holds
    it: the effects carry no payload, each process builds its handlers
    once, and every resume is a tagged engine event. The suspension's
    argument travels through the engine, so a process must pass the
    engine it was spawned on. A suspended charge run keeps its place in
    its process's record, allocated at the process's first suspended run. *)

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

(** {2 Charge runs}

    A run of charges with no suspension between them: [visit item phase]
    does the work due at its boundary and returns the cost of what comes
    next, a charge as [Cache.read line ~by] and friends rather than a
    {!delay}. Phases [0 .. phases - 1] of one item run before the next
    item's, and a zero cost goes straight on to the next phase. A negative
    cost ends the whole run at that boundary. Event times, event counts
    and same-cycle order are those of the same work with a {!delay} after
    each [visit], but the run suspends the calling process at most once:
    while each cost's window is empty it goes on inline, and from the
    first window that is not, its boundaries run inside engine events,
    with the run's place kept in the process's own record.

    So [visit] may do the work due at its boundary (poll a condition,
    charge a cacheline, invalidate a TLB entry) as long as it never
    suspends. It must not call {!delay}, {!park}, a charge run or anything
    built on them ([Waitq], a machine's [charge_*]), and it must not read
    {!Engine.current_name} or {!self_tag}: after the first suspension it
    runs outside the process. An exception raised by [visit] at a boundary
    run in the engine escapes the engine loop unwrapped, not as
    {!Process_failure}. Must only be called from process context. *)

(** The visit that ends a run at once: a stand-in for a visit not built
    yet. *)
val no_visit : int -> int -> int

(** Walk the members of [set] in ascending order, reading the set afresh
    after each member (so [visit] may clear the member it is given). A
    positive [lead] is the cost of a charge the caller already made,
    waited out before the first member; 0 when there is none. *)
val chain_cpus :
  Engine.t -> lead:int -> Cpuset.t -> phases:int -> (int -> int -> int) -> unit

(** Walk items [0 .. n - 1]; [lead] as for {!chain_cpus}. *)
val chain_upto : Engine.t -> lead:int -> int -> phases:int -> (int -> int -> int) -> unit

(** [chain_item engine ~lead item visit] is a run of the single item
    [item] with no bound on its phases: wait out [lead], then [visit item
    0], [visit item 1], ..., each after the cost the one before returned,
    until a visit returns a negative cost. Lets one [visit] serve every
    CPU (the item names the CPU) without a closure per call, and keep its
    place between boundaries in per-CPU state. *)
val chain_item : Engine.t -> lead:int -> int -> (int -> int -> int) -> unit

(** [spin engine ~quantum ~chunk ~left wq wc] is an idle spin
    ({!Engine.spin}): it waits out slices of [min quantum l] cycles, [l]
    what is left of the current chunk (the first has [left] cycles, each
    later one [chunk]), until [wq ()] holds at a slice boundary or [wc ()]
    at a chunk end. Returns the cycles of the chunk left at a [wq] wake
    (0 at a chunk end), or [-1] at a [wc] wake; {!Engine.spin_spun} then
    holds the slice cycles waited out.

    It behaves exactly as the loop that calls {!delay} for each slice and
    then tests [wq], and at a chunk end [wc]: same event times, same event
    and advance counts, same same-time order. But it suspends at most
    once, its idle boundaries are not engine events, and another
    process's {!delay} steps through a window that holds only idle
    boundaries without suspending.

    For that the predicates must be pure (they change nothing that a
    predicate or a process reads, though private memoisation is fine) and
    must not read the clock or the current process: the engine may test
    them before a boundary's time, from inside another process's
    {!delay}, and once for a whole window of boundaries. A deadline is a
    chunk end: make the chunk a whole number of slices that ends at the
    first boundary at or past it, and let [wc] hold. Must only be called
    from process context; an exception from a predicate at a boundary
    that the engine runs escapes the engine loop unwrapped. *)
val spin :
  Engine.t ->
  quantum:int ->
  chunk:int ->
  left:int ->
  (unit -> bool) ->
  (unit -> bool) ->
  int

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
