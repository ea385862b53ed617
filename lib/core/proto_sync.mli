(** Cronus-style single-global-lock synchronous broadcast backend: one
    machine-wide lock and one protocol-wide status table; the initiator
    posts the flush, self-invalidates, kicks every other CPU and spins
    until the whole table reads done. See SNIPPETS.md §1. *)

(** The backend instance for machine [m], with its status table. *)
val create : Machine.t -> Protocol.t
