type page_size = Four_k | Two_m

type entry = {
  vpn : int;
  pfn : int;
  pcid : int;
  size : page_size;
  global : bool;
  writable : bool;
  fractured : bool;
  mutable ck_ver : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invlpg_ops : int;
  invpcid_ops : int;
  full_flushes : int;
  fracture_full_flushes : int;
}

(* Keys are packed ints: [tag lsl 13 | pcid lsl 1 | size_bit]. PCIDs fit 12
   bits (kernel PCIDs are small slot numbers, user PCIDs are slot + 2048 <
   4096); 2 MiB entries are tagged by [vpn lsr 9] so a 4 KiB lookup can find
   its covering hugepage. Global entries match regardless of PCID, so they
   live in a separate table keyed [tag lsl 1 | size_bit]. Packed keys give
   one-word hashing and comparison where the old (pcid, tag, size) tuples
   paid polymorphic-hash tuple traversal per probe. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Multiplicative (Fibonacci) hash: adjacent tags — the common access
     pattern — spread across buckets. *)
  let hash k = (k * 0x2545f4914f6cdd1d) lsr 17 land max_int
end)

let pcid_bits = 12
let pcid_mask = (1 lsl pcid_bits) - 1
let size_bit = function Four_k -> 0 | Two_m -> 1
let tag_of vpn = function Four_k -> vpn | Two_m -> vpn lsr 9

let key ~pcid ~tag size =
  (tag lsl (pcid_bits + 1)) lor (pcid lsl 1) lor size_bit size

let gkey ~tag size = (tag lsl 1) lor size_bit size
let key_pcid k = (k lsr 1) land pcid_mask

type t = {
  cap : int;
  table : entry Itbl.t;
  globals : entry Itbl.t;
  order : (int * int) Queue.t;
      (* FIFO eviction order for the non-global table: (key, stamp) pairs.
         A key's queue slot is live only while [stamps] still maps it to
         that stamp; invalidation drops the stamp, so a later re-insert of
         the same key gets a fresh stamp and a fresh tail position instead
         of inheriting the dead slot near the head. *)
  stamps : int Itbl.t; (* key -> stamp of its live queue slot *)
  mutable next_stamp : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_insertions : int;
  mutable s_evictions : int;
  mutable s_invlpg : int;
  mutable s_invpcid : int;
  mutable s_full : int;
  mutable s_fracture_full : int;
  mutable pwc : bool;
  mutable fracture : bool;
  mutable flush_meter : (bool -> int -> unit) option;
      (* (is_full_flush, entries dropped) per whole-TLB or whole-PCID
         flush; installed by the metrics layer. *)
}

(* Tables start at the stdlib minimum of 16 buckets and grow only in TLBs
   that fill: most TLBs of a big machine stay near-empty, and every machine
   builds one per CPU. No result depends on bucket count: [entries] sorts,
   and [drop_pcid] collects every matching key before dropping any.
   Flushes [clear] rather than [reset], so a TLB that has grown keeps its
   buckets instead of regrowing after every full flush. *)
let create ?(capacity = 1536) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    cap = capacity;
    table = Itbl.create 16;
    globals = Itbl.create 16;
    order = Queue.create ();
    stamps = Itbl.create 16;
    next_stamp = 0;
    s_hits = 0;
    s_misses = 0;
    s_insertions = 0;
    s_evictions = 0;
    s_invlpg = 0;
    s_invpcid = 0;
    s_full = 0;
    s_fracture_full = 0;
    pwc = false;
    fracture = false;
    flush_meter = None;
  }

let set_flush_meter t f = t.flush_meter <- Some f

let capacity t = t.cap

let find t ~pcid ~vpn =
  match Itbl.find_opt t.table (key ~pcid ~tag:vpn Four_k) with
  | Some _ as r -> r
  | None -> (
      match Itbl.find_opt t.globals (gkey ~tag:vpn Four_k) with
      | Some _ as r -> r
      | None -> (
          let tag = vpn lsr 9 in
          match Itbl.find_opt t.table (key ~pcid ~tag Two_m) with
          | Some _ as r -> r
          | None -> Itbl.find_opt t.globals (gkey ~tag Two_m)))

let lookup t ~pcid ~vpn =
  match find t ~pcid ~vpn with
  | Some e ->
      t.s_hits <- t.s_hits + 1;
      Some e
  | None ->
      t.s_misses <- t.s_misses + 1;
      None

let mem t ~pcid ~vpn = Option.is_some (find t ~pcid ~vpn)

(* A queue slot is live iff [stamps] still maps its key to its stamp.
   Invalidation paths remove the stamp, so slots left behind by selective
   flushes — and the older slot of a key that was invalidated and then
   re-inserted — are skipped for free instead of evicting the wrong
   (newer) incarnation of the key. *)
let slot_live t key stamp =
  match Itbl.find_opt t.stamps key with
  | Some s -> s = stamp
  | None -> false

(* Evict FIFO until under capacity, skipping dead queue slots. *)
let rec make_room t =
  if Itbl.length t.table >= t.cap then begin
    match Queue.take_opt t.order with
    | None -> ()
    | Some (key, stamp) ->
        if slot_live t key stamp then begin
          Itbl.remove t.table key;
          Itbl.remove t.stamps key;
          t.s_evictions <- t.s_evictions + 1
        end;
        make_room t
  end

(* Selective flushes leave dead slots behind in [order]; under a
   drop-selective-heavy workload the queue would grow without bound. Once
   dead slots dominate, rebuild it keeping only live slots (each key has at
   most one), preserving their relative order — eviction order is
   unchanged. *)
let compact_order t =
  let fresh = Queue.create () in
  Queue.iter
    (fun (k, s) -> if slot_live t k s then Queue.push (k, s) fresh)
    t.order;
  Queue.clear t.order;
  Queue.transfer fresh t.order

let insert t e =
  if e.pcid < 0 || e.pcid > pcid_mask then invalid_arg "Tlb.insert: pcid out of range";
  t.s_insertions <- t.s_insertions + 1;
  if e.fractured then t.fracture <- true;
  if e.global then Itbl.replace t.globals (gkey ~tag:(tag_of e.vpn e.size) e.size) e
  else begin
    let key = key ~pcid:e.pcid ~tag:(tag_of e.vpn e.size) e.size in
    (* Overwriting a resident key keeps its queue slot (FIFO, not LRU) and
       must not evict anything — only a genuinely new key needs room. *)
    if not (Itbl.mem t.table key) then begin
      if Queue.length t.order > (2 * Itbl.length t.table) + 64 then compact_order t;
      make_room t;
      let stamp = t.next_stamp in
      t.next_stamp <- stamp + 1;
      Itbl.replace t.stamps key stamp;
      Queue.push (key, stamp) t.order
    end;
    Itbl.replace t.table key e
  end

let full_flush_internal t =
  (match t.flush_meter with
  | Some f -> f true (Itbl.length t.table + Itbl.length t.globals)
  | None -> ());
  Itbl.clear t.table;
  Itbl.clear t.globals;
  Itbl.clear t.stamps;
  Queue.clear t.order;
  t.pwc <- false;
  t.fracture <- false

let flush_all t =
  t.s_full <- t.s_full + 1;
  full_flush_internal t

(* A selective flush on a fractured TLB is promoted to a full flush. *)
let fracture_promote t =
  t.s_fracture_full <- t.s_fracture_full + 1;
  full_flush_internal t

let remove_key t key =
  Itbl.remove t.table key;
  Itbl.remove t.stamps key

let drop_selective t ~pcid ~vpn ~drop_globals =
  remove_key t (key ~pcid ~tag:vpn Four_k);
  remove_key t (key ~pcid ~tag:(vpn lsr 9) Two_m);
  if drop_globals then begin
    Itbl.remove t.globals (gkey ~tag:vpn Four_k);
    Itbl.remove t.globals (gkey ~tag:(vpn lsr 9) Two_m)
  end

let invlpg t ~current_pcid ~vpn =
  t.s_invlpg <- t.s_invlpg + 1;
  if t.fracture then fracture_promote t
  else begin
    drop_selective t ~pcid:current_pcid ~vpn ~drop_globals:true;
    t.pwc <- false
  end

let drop t ~pcid ~vpn = drop_selective t ~pcid ~vpn ~drop_globals:false

let invpcid_addr t ~pcid ~vpn =
  t.s_invpcid <- t.s_invpcid + 1;
  if t.fracture then fracture_promote t
  else drop_selective t ~pcid ~vpn ~drop_globals:false

let drop_pcid t ~pcid =
  let doomed =
    Itbl.fold (fun key _ acc -> if key_pcid key = pcid then key :: acc else acc) t.table []
  in
  (match t.flush_meter with
  | Some f -> f false (List.length doomed)
  | None -> ());
  List.iter (remove_key t) doomed

let flush_pcid t ~pcid =
  t.s_invpcid <- t.s_invpcid + 1;
  drop_pcid t ~pcid

let cr3_flush t ~pcid = drop_pcid t ~pcid

let pwc_warm t = t.pwc
let warm_pwc t = t.pwc <- true
let fracture_flag t = t.fracture

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    insertions = t.s_insertions;
    evictions = t.s_evictions;
    invlpg_ops = t.s_invlpg;
    invpcid_ops = t.s_invpcid;
    full_flushes = t.s_full;
    fracture_full_flushes = t.s_fracture_full;
  }

(* Sorted by packed key, so the order depends only on the contents, never
   on bucket count or insert/flush history. *)
let entries t =
  let sorted tbl =
    Itbl.fold (fun k e acc -> (k, e) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  sorted t.table @ sorted t.globals
