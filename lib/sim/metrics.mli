(** Labeled metric series with deterministic merge and export.

    A registry maps (metric name, sorted label set) to a {!Stats.t} plus a
    fixed-bucket {!Stats.Histogram.h}. The shootdown phase-latency
    instrumentation (DESIGN.md §10) records cycle costs here, gated on a
    single [enabled] flag shared by every series so that a disabled
    registry costs one load+branch per call site and allocates nothing.

    Merge/export determinism contract: shards that pre-register the same
    series in the same order (Machine.create does) and are merged in plan
    order produce byte-identical exports at any worker count. Exports sort
    series by (name, labels). *)

type t
type series

(** [create ()] starts enabled; pass [~enabled:false] for a registry whose
    [record] calls are no-ops. *)
val create : ?enabled:bool -> unit -> t

val enabled : t -> bool

(** [series t ~name ?labels ~lo ~hi ~buckets ()] registers (or fetches —
    idempotent) the series for [name] with [labels] (sorted internally)
    and a histogram over [\[lo, hi)]. Raises [Invalid_argument] when an
    existing series has a different histogram configuration. *)
val series :
  t ->
  name:string ->
  ?labels:(string * string) list ->
  lo:float ->
  hi:float ->
  buckets:int ->
  unit ->
  series

(** [record_cycles s c] records an integer cycle count. The int→float
    conversion happens after the enabled check, so a disabled registry
    never boxes. *)
val record_cycles : series -> int -> unit

val stats : series -> Stats.t
val series_name : series -> string
val series_labels : series -> (string * string) list

(** Registration order. *)
val all : t -> series list

(** Merge [src]'s accumulators into [dst], registering any series [dst]
    lacks. Walks [src] in registration order; see the determinism
    contract above. *)
val merge_into : t -> t -> unit

(** JSON document (schema 1): sorted series with count/sum/moments,
    p50/p90/p99 ([null] when empty), and histogram counts with explicit
    underflow/overflow/nan. *)
val to_json : t -> string

(** The body of a JSON string literal for [s]: quotes, backslashes and
    control characters escaped. *)
val json_escape : string -> string

(** Prometheus text exposition format, one histogram family per metric
    name. Bucket counts are cumulative; underflow samples are included in
    every bucket (they are ≤ each upper edge) and overflow/NaN only in
    [le="+Inf"]. Every metric name takes the prefix ["tlbsim_"]. *)
val to_prometheus : t -> string

(** Aligned ASCII table: metric, labels, n, mean, p50, p99, max, and
    out-of-range counts. *)
val pp_table : Format.formatter -> t -> unit
