(** The conservative oracle backend: every flush request becomes one
    synchronous whole-TLB flush IPI broadcast to every other CPU — no
    deferral, no batching, no early ack, no target filtering. Trivially
    correct by construction; the differential fuzzer's reference. *)

(** The backend instance for machine [m]. *)
val create : Machine.t -> Protocol.t
