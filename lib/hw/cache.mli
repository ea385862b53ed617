(** Cacheline coherence cost model (MESI-flavoured).

    Each kernel cacheline the shootdown protocol touches is registered here.
    Reads and writes return a cycle cost that depends on where the line's
    current holders sit in the topology, and update them. Pricing an access
    costs O(SMT threads per core), whatever the machine size. The
    cacheline-consolidation optimization (paper §3.3) manifests as fewer
    registered lines touched per shootdown, which this module prices and
    counts. *)

type registry
type line

(** Totals accumulated across all lines of a registry. *)
type totals = {
  reads : int;
  writes : int;
  local_hits : int;
  smt_transfers : int;
  same_socket_transfers : int;
  cross_socket_transfers : int;
  cycles : int;
}

(** Raises [Invalid_argument] when the topology has more than
    [Sys.int_size - 1] sockets: a line keeps its holders' sockets as the
    bits of one int. *)
val create_registry : Topology.t -> Costs.t -> registry

(** [set_transfer_meter reg f] installs a per-access observer: [f rank cost]
    is called for every priced access with the {!Topology.distance_rank} of
    the transfer source (rank 0 = local hit) and its cycle cost. Used by
    the metrics layer; without a meter the access path pays one
    load+branch. *)
val set_transfer_meter : registry -> (int -> int -> unit) -> unit

(** A new cacheline, held by no CPU (first touch is a cheap local fill).
    Lines are anonymous: [name] is accepted and ignored. *)
val create_line : ?name:string Lazy.t -> registry -> line

(** [read line ~by] returns the cycle cost of loading the line on CPU [by]
    and records [by] as a sharer. A read of a line last written elsewhere
    pays a transfer priced by distance. *)
val read : line -> by:Topology.cpu_id -> int

(** [write line ~by] makes [by] the exclusive owner. The writer's visible
    cost is local (stores retire through the store buffer; the RFO
    completes asynchronously) but the invalidation is recorded as coherence
    traffic and the next remote reader pays the transfer. *)
val write : line -> by:Topology.cpu_id -> int

(** Atomic read-modify-write: stalls for exclusive ownership, paying the
    farthest holder's transfer, plus the locked-op cost. *)
val atomic : line -> by:Topology.cpu_id -> int

val totals : registry -> totals
