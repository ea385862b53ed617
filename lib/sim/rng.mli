(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit [Rng.t]
    so that experiments are reproducible bit-for-bit given a seed. *)

type t

val create : seed:int64 -> t

(** [split t] derives an independent generator; use one per simulated entity
    so that adding draws in one place does not perturb another. *)
val split : t -> t

(** Uniform integer in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** Bernoulli draw with probability [p]. *)
val bool : t -> p:float -> bool

(** Pick a uniformly random element. Raises [Invalid_argument] on empty. *)
val choose : t -> 'a array -> 'a
