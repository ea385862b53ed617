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
      (* [loc.(c) = physical_core lsl socket_shift lor socket] of cpu [c],
         precomputed: one load gives both the accessor's socket bit and the
         first cpu id of its physical core, where the sibling probe starts,
         and the table costs one word per CPU. *)
  stride : int; (* physical cores: the id distance between SMT siblings *)
  smt : int;
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

(* A line's holders are its sharer set: a Cpuset, a word-array bitset that
   starts with no storage and only ever grows to the highest sharing cpu's
   word. Beside it the line keeps the set's size and a bit mask of the
   sockets that hold a copy, both maintained where [read] adds a sharer
   and where [take_exclusive] resets the set (nothing else changes it).
   Together with a probe of the accessor's [smt - 1] siblings they rank
   any access without walking the set, so an access costs O(smt) at any
   machine size. The last writer needs no field of its own: it is the
   sole sharer [take_exclusive] leaves, and a later read only adds to the
   set, so a write finds the line already exclusive exactly when [by] is
   its only holder. *)
and line = {
  reg : registry;
  mutable holders : int; (* members of [sharers] *)
  mutable sockets : int; (* bit [s] set iff a member sits on socket [s] *)
  sharers : Cpuset.t; (* cpu [c] present iff it holds a copy *)
}

let distance_rank = Topology.distance_rank

(* A location entry keeps the socket number in its low [socket_shift]
   bits and the physical core above them. A line's socket mask has one bit
   per socket, so the registry takes at most [Sys.int_size - 1] sockets,
   whose numbers fit the field. *)
let socket_shift = 6
let socket_mask = (1 lsl socket_shift) - 1
let max_sockets = Sys.int_size - 1

let create_registry topo costs =
  let sockets = Topology.sockets topo in
  if sockets > max_sockets then
    invalid_arg
      (Printf.sprintf "Cache.create_registry: %d sockets, at most %d" sockets max_sockets);
  let loc =
    Array.init (Topology.n_cpus topo) (fun c ->
        (Topology.physical_core_of topo c lsl socket_shift) lor Topology.socket_of topo c)
  in
  {
    loc;
    stride = sockets * Topology.cores_per_socket topo;
    smt = Topology.smt topo;
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

let create_line ?name:_ reg =
  { reg; holders = 0; sockets = 0; sharers = Cpuset.create ~bits:0 }

let record l (d : Topology.distance) cost =
  let reg = l.reg in
  reg.t_cycles <- reg.t_cycles + cost;
  (match reg.meter with Some f -> f (distance_rank d) cost | None -> ());
  match d with
  | Self -> reg.t_local <- reg.t_local + 1
  | Smt_sibling -> reg.t_smt <- reg.t_smt + 1
  | Same_socket -> reg.t_same <- reg.t_same + 1
  | Cross_socket -> reg.t_cross <- reg.t_cross + 1

(* Members of the sharer set among [by]'s SMT siblings (not [by] itself):
   the CPUs of one physical core are [first], [first + stride], ... *)
let siblings_holding l ~by first =
  let reg = l.reg in
  let n = ref 0 in
  let c = ref first in
  for _ = 1 to reg.smt do
    if !c <> by && Cpuset.mem l.sharers !c then incr n;
    c := !c + reg.stride
  done;
  !n

(* A read by a non-holder fetches from the nearest copy: an SMT sibling's,
   else one on its own socket, else any; [Self] (a cold fill) when no CPU
   holds the line. [e] is [by]'s location entry. *)
let read_distance l ~by e : Topology.distance =
  if l.holders = 0 then Self
  else if siblings_holding l ~by (e lsr socket_shift) > 0 then Smt_sibling
  else if l.sockets land (1 lsl (e land socket_mask)) <> 0 then Same_socket
  else Cross_socket

(* A write is priced by the farthest copy it invalidates: one on another
   socket, else one on its own socket outside its core, else a sibling's;
   [Self] when no CPU but [by] holds the line. *)
let write_distance l ~by e : Topology.distance =
  if l.sockets land lnot (1 lsl (e land socket_mask)) <> 0 then Cross_socket
  else begin
    let others = if Cpuset.mem l.sharers by then l.holders - 1 else l.holders in
    if others = 0 then Self
    else begin
      let siblings = siblings_holding l ~by (e lsr socket_shift) in
      if others > siblings then Same_socket else Smt_sibling
    end
  end

let read l ~by =
  let reg = l.reg in
  reg.t_reads <- reg.t_reads + 1;
  if Cpuset.mem l.sharers by then begin
    record l Self reg.costs.line_local;
    reg.costs.line_local
  end
  else begin
    let e = reg.loc.(by) in
    let d = read_distance l ~by e in
    let cost = Costs.line_transfer reg.costs d in
    record l d cost;
    Cpuset.set l.sharers by;
    l.holders <- l.holders + 1;
    l.sockets <- l.sockets lor (1 lsl (e land socket_mask));
    cost
  end

(* Invalidate every copy and make [by] the sole holder. *)
let take_exclusive l ~by e =
  Cpuset.clear_all l.sharers;
  Cpuset.set l.sharers by;
  l.holders <- 1;
  l.sockets <- 1 lsl (e land socket_mask)

(* Stores retire through the store buffer: the writer does not stall for
   the ownership transfer (the RFO completes asynchronously), so the
   writer's visible cost is local. The invalidation still moves ownership
   — the *next reader* pays the transfer — and is recorded as coherence
   traffic by distance. Atomics, by contrast, stall for the line. *)
let write l ~by =
  let reg = l.reg in
  reg.t_writes <- reg.t_writes + 1;
  let e = reg.loc.(by) in
  record l (write_distance l ~by e) reg.costs.line_local;
  take_exclusive l ~by e;
  reg.costs.line_local

(* An atomic stalls for ownership: it pays the farthest holder's
   transfer, then the locked op. *)
let atomic l ~by =
  let reg = l.reg in
  reg.t_writes <- reg.t_writes + 1;
  let e = reg.loc.(by) in
  let d = write_distance l ~by e in
  let cost = Costs.line_transfer reg.costs d in
  record l d cost;
  take_exclusive l ~by e;
  cost + reg.costs.atomic_op

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

