(** TLB-coherence safety oracle.

    The paper's central correctness argument (§2.3.2, §3.2, §4.2) is that a
    stale TLB entry is harmless {e while} its invalidation is still
    in-flight — the initiator has not yet returned to its caller — but
    becomes a correctness/safety violation the moment the kernel behaves as
    if the flush completed (frames may be recycled). This module encodes
    exactly that invariant:

    - when the kernel changes PTEs it opens an invalidation window
      ({!begin_invalidation});
    - when the flush operation returns to its caller the window closes
      ({!end_invalidation});
    - every user-mode TLB {e hit} is checked against the live page table:
      a stale hit inside an open window is a benign race (x86 permits it),
      a stale hit with no covering window is a violation.

    Stock protocols and all six paper optimizations run violation-free; the
    LATR-style [Opts.Lazy_strawman] fault does not — which is the
    paper's point. *)

type t

type violation = {
  v_time : int;
  v_cpu : int;
  v_mm : int;
  v_vpn : int;
  v_detail : string;
}

type token

type result = [ `Clean | `Benign of string | `Violation of string ]
(** Classification of one checked hit: [`Clean] means the entry matches the
    live page table; the payload of the other two is the staleness reason. *)

(** [max_recorded] bounds the list kept by {!violations}; the total count
    ({!violation_count}) keeps growing past it. *)
val create : ?max_recorded:int -> unit -> t

(** Open an invalidation window for the PTE change described by [info]. *)
val begin_invalidation : t -> Flush_info.t -> token

(** Close the window: from now on a stale hit covered only by this window
    is a violation. Idempotent. *)
val end_invalidation : t -> token -> unit

(** Stable integer id of a window token — what {!Sim.Trace.Flush_start}
    records carry so the analysis layer can pair open/close events. *)
val token_id : token -> int

(** Is some open window covering [vpn] of [mm_id]? Short-circuits on the
    first covering window. *)
val covered : t -> mm_id:int -> vpn:int -> bool

(** Verify a user-mode TLB hit on [cpu] against the live page table.
    Records a violation (or counts a benign race) if the entry is stale, and
    returns the classification so the caller can trace it.

    The software walk of [pt] is skipped when [entry] was already validated
    clean against [pt]'s current {!Mm.Page_table.version} (stamped into
    [entry.ck_ver]) — every page-table mutation bumps the version, so an
    unchanged stamp proves an unchanged verdict. *)
val check_hit :
  t ->
  now:int ->
  cpu:int ->
  mm_id:int ->
  vpn:int ->
  write:bool ->
  entry:Tlb.entry ->
  pt:Page_table.t ->
  result

(** The violations kept: the earliest [max_recorded] of them. *)
val violations : t -> violation list

val violation_count : t -> int

(** The [max_recorded] cap this checker was created with (1000 by default). *)
val max_recorded : t -> int
[@@tlblint.allow "R5 state accessor: tests read the recording cap through it"]

(** Stale hits excused by an open window. *)
val benign_races : t -> int

(** Total hits checked. *)
val checks : t -> int

(** Open windows right now (should be 0 at quiescence). *)
val open_windows : t -> int

val pp_violation : Format.formatter -> violation -> unit
