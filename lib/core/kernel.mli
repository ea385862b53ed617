(** Thread and process plumbing: the top of the public API.

    A "user thread" is a simulated process pinned to one CPU with one
    address space loaded; its body calls {!Access} and {!Syscall}. At most
    one user thread may run per CPU at a time (the workloads in this
    reproduction pin 1:1, as the paper's benchmarks effectively do). *)

(** [spawn_user m ~cpu ~mm ~name body] starts a user thread: loads [mm] on
    [cpu] (paying the context switch), marks the CPU as running user code,
    runs [body], and unloads on exit. *)
val spawn_user :
  Machine.t -> cpu:int -> mm:Mm_struct.t -> name:string -> (unit -> unit) -> unit

(** Run the machine to quiescence and re-raise any process failure. *)
val run : Machine.t -> unit

(** The invariants of a machine run to quiescence, the one list that
    workloads, the differential fuzzer and the interleaving explorer all
    check: no checker violation, no open invalidation window, every IPI
    handled once and none pending ({!Machine.ipi_invariants}), and on every
    CPU no surviving deferred user flush, no undrained call queue, no stuck
    inflight-flush flag, no unflushed batch and a quiescent protocol
    backend ({!Shootdown.protocol_quiescent}); last, every engine event
    row is back on the arena's free list and no idle spin is pending
    ({!Sim.Engine.live_rows}). Calls
    [add_failure] once per violated invariant. *)
val check_quiescent : Machine.t -> (string -> unit) -> unit

(** End-of-run check for the workloads, after {!run}: {!check_quiescent},
    raising [Failure (who ^ ": " ^ reasons)] once, where [reasons] names
    every failure in {!check_quiescent}'s order, separated by ["; "]. A
    checker violation is reported before any of them, and alone, as
    ["TLB coherence violation: "] and the first recorded violation
    ({!Checker.pp_violation}). *)
val check_run : Machine.t -> who:string -> unit
