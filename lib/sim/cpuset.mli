(** Growable int-array bitsets over small non-negative ints (CPU ids).

    The shared CPU-set representation for every hot path that used to keep
    a single-word bitmask (capped at [Sys.int_size - 2] CPUs), a [bool
    array] scanned O(n_cpus), or a freshly allocated [int list]: cacheline
    sharer sets, mm cpumasks, shootdown target sets and APIC cluster sets.

    Traversals visit set bits in ascending order, skip zero words and zero
    bytes, and allocate nothing themselves, so they run in O(words + set
    bits); a set's word array only ever extends to its highest member, so
    sparse sets on 1024-CPU topologies stay a few words long. Sets are
    single-domain mutable scratch state: the shootdown paths reuse
    per-initiator scratch sets instead of allocating per shootdown. *)

type t

(** [create ~bits] makes an empty set pre-sized for elements [0, bits).
    [bits = 0] allocates no word storage at all until the first [set] —
    the right choice for the many per-line sharer sets that stay empty. *)
val create : bits:int -> t

(** Current capacity in bits (a multiple of the word size, so it can
    exceed the [create] hint). [set] grows past it transparently. *)
val capacity : t -> int

(** [set t b] adds [b], growing the word array if needed. Negative [b]
    is an error. *)
val set : t -> int -> unit

(** [clear t b] removes [b]; elements beyond capacity are already absent,
    so this never grows. *)
val clear : t -> int -> unit

val mem : t -> int -> bool
val is_empty : t -> bool

(** Number of set bits (SWAR popcount per nonzero word). *)
val count : t -> int

(** [iter f t] applies [f] to each member in ascending order. [f] may
    [clear] the member it was given (or any earlier one) — the traversal
    snapshots one word at a time, which is what lets
    [Proto_paper.select_targets] filter a scratch set in place — but must
    not [set] bits in [t]. *)
val iter : (int -> unit) -> t -> unit

(** [next t b] is the least member [>= b] ([b >= 0]), or [-1] when there
    is none. Unlike {!iter} it reads the set afresh at every call. *)
val next : t -> int -> int

(** [fold f init t] folds over members in ascending order; same
    reentrancy contract as {!iter}. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** Remove every element; keeps the storage for scratch reuse. *)
val clear_all : t -> unit

(** [union_into ~dst ~src] adds every member of [src] to [dst]. *)
val union_into : dst:t -> src:t -> unit

(** [copy_into ~dst ~src] makes [dst] equal to [src] (clearing any extra
    high words of [dst]); the scratch-snapshot primitive. *)
val copy_into : dst:t -> src:t -> unit

(** Ascending member list; for tests and debug output, not hot paths. *)
val to_list : t -> int list

val of_list : int list -> t

(** The backing word array (32 bits used per word), for proven-bounds
    modules that fuse a bit walk with their own per-member table lookups
    (Cache's holder-rank scan). Callers must treat it as read-only and
    must not hold it across a [set] (growth replaces the array). *)
val raw_words : t -> int array
