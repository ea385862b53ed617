(** Charmos-style per-CPU ring-buffer queue backend: bounded invalidation
    rings with flush-all collapsing on overflow, and an initial-spin /
    backoff-multiplier / resend ack-wait ladder. See SNIPPETS.md §2-3. *)

(** The backend instance for machine [m], with its per-CPU rings. *)
val create : Machine.t -> Protocol.t
