(** Machine topology: sockets, physical cores, SMT threads, x2APIC clusters.

    Logical CPUs are numbered Linux-style: first one thread of every physical
    core across all sockets, then the SMT siblings. The evaluation machine of
    the paper (Dell R630, 2x Xeon E5-2660v4: 2 sockets x 14 cores x 2 SMT)
    is {!paper_machine}. *)

type t

type cpu_id = int

(** Relative placement of two logical CPUs; what prices IPI delivery and
    cacheline transfers. *)
type distance =
  | Self  (** the same logical CPU *)
  | Smt_sibling  (** same physical core, other hyperthread *)
  | Same_socket
  | Cross_socket

val create : sockets:int -> cores_per_socket:int -> smt:int -> t

(** 2 sockets x 14 cores x 2 SMT = 56 logical CPUs. *)
val paper_machine : t

(** Single socket, [n] cores, no SMT: the smallest useful machine. *)
val flat : int -> t

val sockets : t -> int
val cores_per_socket : t -> int
val smt : t -> int

(** Total logical CPUs. *)
val n_cpus : t -> int

val socket_of : t -> cpu_id -> int
val physical_core_of : t -> cpu_id -> int
val distance : t -> cpu_id -> cpu_id -> distance

(** First logical CPU of each physical core on [socket]. *)
val cpus_of_socket : t -> int -> cpu_id list

(** The other hyperthread of [cpu]'s physical core, if SMT > 1. *)
val smt_sibling_of : t -> cpu_id -> cpu_id option

(** x2APIC cluster-mode cluster index (clusters of up to 16 APIC ids). A
    multicast IPI reaches a subset of one cluster per ICR write. *)
val cluster_of : t -> cpu_id -> int

(** Dense rank of a distance: Self 0, Smt_sibling 1, Same_socket 2,
    Cross_socket 3. The metrics layer indexes per-distance series by rank. *)
val distance_rank : distance -> int

(** Number of distance ranks (4). *)
val n_distance_ranks : int

(** Inverse of {!distance_rank}; raises [Invalid_argument] outside 0..3. *)
val distance_of_rank : int -> distance

(** Stable short label ("self" / "smt-sibling" / "same-socket" /
    "cross-socket") used as a metric label value. *)
val distance_label : distance -> string
