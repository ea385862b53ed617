(* tlblint: proven-bounds — Array.unsafe_get reads the per-CPU location
   table only at holder ids. A cpu becomes a holder (owner or sharer) only
   as the [by] of an access that first loaded [loc.(by)] bounds-checked in
   [extreme_rank] (or was already a holder), so every holder id is in
   range. The sharer-set walk reads Cpuset.raw_words with indices bounded
   by the word array's own length. *)
type totals = {
  reads : int;
  writes : int;
  local_hits : int;
  smt_transfers : int;
  same_socket_transfers : int;
  cross_socket_transfers : int;
  cycles : int;
}

type registry = {
  loc : int array;
      (* [loc.(c) = socket * 2^32 lor physical_core] of cpu [c], precomputed:
         the holder scans below rank every holder against the accessor per
         access, and the div/mod chain in [Topology.distance] is measurable
         there. Two CPUs' entries xor to 0 iff they share a physical core,
         and to a value below 2^32 iff they share a socket: one load orders
         a holder by rank, and the table costs one word per CPU. *)
  costs : Costs.t;
  mutable t_reads : int;
  mutable t_writes : int;
  mutable t_local : int;
  mutable t_smt : int;
  mutable t_same : int;
  mutable t_cross : int;
  mutable t_cycles : int;
  mutable meter : (int -> int -> unit) option;
      (* (distance rank, cycle cost) per access; installed by the metrics
         layer, [None] costs one load+branch in [record]. *)
}

(* The owner is an immediate int (cpu id or -1); sharers are a Cpuset — a
   word-array bitset that starts with no storage and only ever grows to the
   highest sharing cpu's word, so a line touched by two neighbouring CPUs
   on a 1024-CPU machine costs the same as on the 56-CPU paper machine.
   Coherence bookkeeping runs once per shootdown participant per protocol
   line; the single-int mask this replaces capped topologies at
   [Sys.int_size - 2] CPUs. *)
and line = {
  reg : registry;
  line_name : string Lazy.t;
  mutable owner : int; (* last writer's cpu id, -1 = none *)
  sharers : Cpuset.t; (* cpu [c] present iff it holds a shared copy *)
}

let distance_rank = Topology.distance_rank

(* Inverse of [distance_rank]; ranks are injective on the constructors, so
   storing ranks and mapping back returns the exact same constructor. *)
let distance_of_rank =
  [| Topology.Self; Topology.Smt_sibling; Topology.Same_socket; Topology.Cross_socket |]

(* The socket's place value in a location entry: physical core ids stay
   below it. *)
let cross_socket = 1 lsl 32

let create_registry topo costs =
  let loc =
    Array.init (Topology.n_cpus topo) (fun c ->
        (Topology.socket_of topo c * cross_socket) lor Topology.physical_core_of topo c)
  in
  {
    loc;
    costs;
    t_reads = 0;
    t_writes = 0;
    t_local = 0;
    t_smt = 0;
    t_same = 0;
    t_cross = 0;
    t_cycles = 0;
    meter = None;
  }

let set_transfer_meter reg f = reg.meter <- Some f

let create_line reg ~name =
  { reg; line_name = name; owner = -1; sharers = Cpuset.create ~bits:0 }

let record l (d : Topology.distance) cost =
  let reg = l.reg in
  reg.t_cycles <- reg.t_cycles + cost;
  (match reg.meter with Some f -> f (distance_rank d) cost | None -> ());
  match d with
  | Self -> reg.t_local <- reg.t_local + 1
  | Smt_sibling -> reg.t_smt <- reg.t_smt + 1
  | Same_socket -> reg.t_same <- reg.t_same + 1
  | Cross_socket -> reg.t_cross <- reg.t_cross + 1

(* Holder [h] is compared with the accessor through [x = loc.(by) lxor
   loc.(h)], which orders holders as their distance ranks do: [x = 0] is an
   SMT sibling (rank 1; [h] is never the accessor itself), [0 < x <
   cross_socket] the same socket (rank 2), anything larger another socket
   (rank 3). *)
let rank_of_x x = if x = 0 then 1 else if x < cross_socket then 2 else 3

(* Best-rank holder distance from [by] over the holders (the sharer set
   plus the owner, minus [by]), as a rank (-1 = no holders): the minimum
   rank when [want_min] (a read fetches from the closest copy), the
   maximum otherwise (a write is priced by the farthest invalidation).
   The walk keeps the minimum of [key = x lxor flip]: with [flip = 0] that
   is the minimum [x], with [flip = -1] ([key = lnot x]) the maximum, so
   each holder costs one load, one xor and one compare in either mode. The
   winner is mapped to its rank once; ranks are injective on the distance
   constructors, so mapping back through [distance_of_rank] picks exactly
   the constructor the old constructor-fold did. The owner is compared
   first (min/max is insensitive to it also appearing among the sharers);
   the sharer walk skips zero words, then zero bytes (sparse holder sets),
   and stops once [key <= stop], the best achievable rank — [by] itself
   is masked out, so reads stop at [Smt_sibling], writes at
   [Cross_socket]. Returning the rank keeps this allocation-free (no
   [Some] boxing on the per-access path). *)
let extreme_rank l ~by ~want_min =
  let loc = l.reg.loc in
  let flip = if want_min then 0 else -1 in
  let stop = if want_min then 0 else lnot cross_socket in
  let by_key = loc.(by) lxor flip in
  let best = ref max_int in
  if l.owner >= 0 && l.owner <> by then best := by_key lxor Array.unsafe_get loc l.owner;
  let words = Cpuset.raw_words l.sharers in
  let nw = Array.length words in
  let by_wi = by lsr 5 in
  let wi = ref 0 in
  while !wi < nw && !best > stop do
    let w = Array.unsafe_get words !wi in
    let w = if !wi = by_wi then w land lnot (1 lsl (by land 31)) else w in
    if w <> 0 then begin
      let m = ref w in
      let cpu = ref (!wi lsl 5) in
      while !m <> 0 && !best > stop do
        if !m land 0xff = 0 then begin
          m := !m lsr 8;
          cpu := !cpu + 8
        end
        else begin
          if !m land 1 = 1 then begin
            let key = by_key lxor Array.unsafe_get loc !cpu in
            if key < !best then best := key
          end;
          m := !m lsr 1;
          incr cpu
        end
      done
    end;
    incr wi
  done;
  if !best = max_int then -1 else rank_of_x (!best lxor flip)

let read l ~by =
  let reg = l.reg in
  reg.t_reads <- reg.t_reads + 1;
  if Cpuset.mem l.sharers by || l.owner = by then begin
    record l Self reg.costs.line_local;
    Cpuset.set l.sharers by;
    reg.costs.line_local
  end
  else begin
    let r = extreme_rank l ~by ~want_min:true in
    let d = if r < 0 then Topology.Self else Array.unsafe_get distance_of_rank r in
    let cost = Costs.line_transfer reg.costs d in
    record l d cost;
    Cpuset.set l.sharers by;
    cost
  end

(* Stores retire through the store buffer: the writer does not stall for
   the ownership transfer (the RFO completes asynchronously), so the
   writer's visible cost is local. The invalidation still moves ownership
   — the *next reader* pays the transfer — and is recorded as coherence
   traffic by distance. Atomics, by contrast, stall for the line. *)
(* No sharer other than (possibly) [by]: the exclusivity half of the
   "already own it" write fast path. A walk over the words, not a popcount
   — almost every word is zero on the fast path. *)
let no_other_sharer l ~by =
  let words = Cpuset.raw_words l.sharers in
  let nw = Array.length words in
  let by_wi = by lsr 5 in
  let ok = ref true in
  let wi = ref 0 in
  while !ok && !wi < nw do
    let w = Array.unsafe_get words !wi in
    let w = if !wi = by_wi then w land lnot (1 lsl (by land 31)) else w in
    if w <> 0 then ok := false;
    incr wi
  done;
  !ok

(* Invalidate every copy and make [by] the sole owner+sharer. *)
let take_exclusive l ~by =
  Cpuset.clear_all l.sharers;
  Cpuset.set l.sharers by;
  l.owner <- by

let write l ~by =
  let reg = l.reg in
  reg.t_writes <- reg.t_writes + 1;
  let d =
    let exclusive = l.owner = by && no_other_sharer l ~by in
    if exclusive then Topology.Self
    else begin
      let r = extreme_rank l ~by ~want_min:false in
      if r < 0 then Topology.Self else Array.unsafe_get distance_of_rank r
    end
  in
  record l d reg.costs.line_local;
  take_exclusive l ~by;
  reg.costs.line_local

let stalling_write l ~by =
  let reg = l.reg in
  reg.t_writes <- reg.t_writes + 1;
  let exclusive = l.owner = by && no_other_sharer l ~by in
  let cost, d =
    if exclusive then (reg.costs.line_local, Topology.Self)
    else begin
      let r = extreme_rank l ~by ~want_min:false in
      if r < 0 then (reg.costs.line_local, Topology.Self)
      else begin
        let d = Array.unsafe_get distance_of_rank r in
        (Costs.line_transfer reg.costs d, d)
      end
    end
  in
  record l d cost;
  take_exclusive l ~by;
  cost

let atomic l ~by = stalling_write l ~by + l.reg.costs.atomic_op

let totals reg =
  {
    reads = reg.t_reads;
    writes = reg.t_writes;
    local_hits = reg.t_local;
    smt_transfers = reg.t_smt;
    same_socket_transfers = reg.t_same;
    cross_socket_transfers = reg.t_cross;
    cycles = reg.t_cycles;
  }

let reset_stats reg =
  reg.t_reads <- 0;
  reg.t_writes <- 0;
  reg.t_local <- 0;
  reg.t_smt <- 0;
  reg.t_same <- 0;
  reg.t_cross <- 0;
  reg.t_cycles <- 0
