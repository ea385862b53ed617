(** Reader-writer semaphore (models mm->mmap_sem).

    Writers are exclusive; readers share. Waiters block as simulated
    processes. Fairness is writer-preferring like Linux's rwsem enough for
    the workloads: a queued writer blocks new readers. The userspace-safe
    batching optimization (§4.2) piggybacks its flush barrier on the release
    of this semaphore; {!Kernel.unlock_mmap} performs the deferred
    shootdown just before releasing it. *)

type t

val create : Engine.t -> t

val down_read : t -> unit
val up_read : t -> unit
val down_write : t -> unit
val up_write : t -> unit
