(** Reader-writer semaphore (models mm->mmap_sem).

    Writers are exclusive; readers share. Waiters block as simulated
    processes. Fairness is writer-preferring like Linux's rwsem enough for
    the workloads: a queued writer blocks new readers. The userspace-safe
    batching optimization (§4.2) piggybacks its flush barrier on the release
    of this semaphore; the syscall layer performs the deferred shootdown
    just before calling {!up_write}. *)

type t

val create : Engine.t -> t

val down_read : t -> unit
val up_read : t -> unit
val down_write : t -> unit
val up_write : t -> unit

(** Run [f] under the write lock, releasing on exception. *)
val with_write : t -> (unit -> 'a) -> 'a
