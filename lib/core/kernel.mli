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

(** A kernel-context process on [cpu] (e.g. a background responder or an
    idle loop); does not touch address-space state. *)
val spawn_kernel : Machine.t -> cpu:int -> name:string -> (unit -> unit) -> unit

(** An idle loop that services IPIs on [cpu] until [until ()] is true
    (checked after each wakeup). Spawn one per otherwise-unused CPU that
    can receive shootdowns. *)
val spawn_idle : Machine.t -> cpu:int -> until:(unit -> bool) -> unit

(** Run the machine to quiescence and re-raise any process failure. *)
val run : Machine.t -> unit

(** End-of-run check for the workloads, after {!run}: {!Machine.check_run},
    then {!Shootdown.protocol_quiescent} on every CPU. Raises [Failure]
    prefixed with [who] on the first failure. *)
val check_run : Machine.t -> who:string -> unit
