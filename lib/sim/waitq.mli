(** Condition variables and one-shot completions for simulated processes.

    These are the only blocking primitives the kernel model uses: cores
    spin-waiting on shootdown acknowledgements, idle loops waiting for
    interrupts, and threads waiting on the mmap semaphore all sleep here. *)

type t

val create : Engine.t -> t

(** Block the calling process until the next signal. *)
val wait : t -> unit

(** Wake every waiter (they resume at the current instant, in wait order). *)
val signal_all : t -> unit

(** Wake the earliest waiter, if any. *)
val signal_one : t -> unit

(** Number of processes currently blocked. *)
val waiters : t -> int
[@@tlblint.allow "R5 state accessor: tests read the blocked count through it"]

(** One-shot event: waiting after {!Completion.fire} returns immediately. *)
module Completion : sig
  type c

  val create : Engine.t -> c
  val fire : c -> unit
  val is_fired : c -> bool
  val wait : c -> unit
end
