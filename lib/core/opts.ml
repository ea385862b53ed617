type paper = {
  concurrent_flush : bool;
  early_ack : bool;
  cacheline_consolidation : bool;
  cow_avoid_flush : bool;
  userspace_batching : bool;
  batch_slots : int;
  serialized : bool;
}

(* Which shootdown-protocol backend drives remote invalidation. Each
   constructor maps to one [Core.Protocol] backend (see protocol.mli);
   everything protocol-specific in [Core.Shootdown] dispatches on this
   variant exactly once. Only the paper backend has knobs of its own. *)
type protocol = Paper of paper | Oracle | Sync_broadcast | Queue_spin

let protocol_label = function
  | Paper _ -> "paper"
  | Oracle -> "oracle"
  | Sync_broadcast -> "sync-broadcast"
  | Queue_spin -> "queue-spin"

type fault = Lazy_strawman | Skip_deferred_flush

type t = {
  safe : bool;
  in_context_flush : bool;
  full_flush_threshold : int;
  spec_pte_recache_p : float;
  protocol : protocol;
  fault : fault option;
}

let paper_baseline =
  {
    concurrent_flush = false;
    early_ack = false;
    cacheline_consolidation = false;
    cow_avoid_flush = false;
    userspace_batching = false;
    batch_slots = 4;
    serialized = false;
  }

let knobs t =
  match t.protocol with
  | Paper p -> p
  | Oracle | Sync_broadcast | Queue_spin -> paper_baseline

let all_protocols = [ Paper paper_baseline; Oracle; Sync_broadcast; Queue_spin ]

let with_protocol protocol ~safe =
  {
    safe;
    in_context_flush = false;
    full_flush_threshold = 33;
    spec_pte_recache_p = 0.05;
    protocol;
    fault = None;
  }

let baseline ~safe = with_protocol (Paper paper_baseline) ~safe

(* The conservative reference protocol for differential testing: every PTE
   change becomes one synchronous whole-TLB flush IPI broadcast to every
   other CPU, with no deferral, batching, early acknowledgement or target
   filtering. Trivially correct (no stale translation can survive any
   flush), unusably slow — exactly what an oracle should be. *)
let oracle ~safe = with_protocol Oracle ~safe

let update_paper ~what f t =
  match t.protocol with
  | Paper p -> { t with protocol = Paper (f p) }
  | Oracle | Sync_broadcast | Queue_spin ->
      invalid_arg
        (Printf.sprintf "%s is a paper-protocol option; the %s backend has no such knob"
           what (protocol_label t.protocol))

let map_paper f t = update_paper ~what:"Opts.map_paper" f t

type switch = { name : string; paper_only : bool; set : t -> bool -> t }

let paper_switch name f =
  { name; paper_only = true; set = (fun t v -> update_paper ~what:name (fun p -> f p v) t) }

let concurrent = paper_switch "concurrent" (fun p v -> { p with concurrent_flush = v })
let early_ack = paper_switch "early-ack" (fun p v -> { p with early_ack = v })

let cacheline =
  paper_switch "cacheline" (fun p v -> { p with cacheline_consolidation = v })

let in_context =
  { name = "in-context"; paper_only = false; set = (fun t v -> { t with in_context_flush = v }) }

let cow = paper_switch "cow" (fun p v -> { p with cow_avoid_flush = v })
let batching = paper_switch "batching" (fun p v -> { p with userspace_batching = v })
let general = [ concurrent; early_ack; cacheline; in_context ]
let techniques = general @ [ cow; batching ]

let unsafe_lazy =
  {
    name = "unsafe-lazy";
    paper_only = false;
    set = (fun t v -> { t with fault = (if v then Some Lazy_strawman else None) });
  }

(* FreeBSD's comparator also raises the full-flush ceiling to 4096 (§2.1). *)
let serialize =
  let sw = paper_switch "freebsd" (fun p v -> { p with serialized = v }) in
  let set t v =
    let t = sw.set t v in
    if v then { t with full_flush_threshold = 4096 } else t
  in
  { sw with set }

let switches = techniques @ [ unsafe_lazy; serialize ]

let honours protocol sw =
  match protocol with
  | Paper _ -> true
  | Oracle -> false
  | Sync_broadcast | Queue_spin -> not sw.paper_only

let on sw t = sw.set t true
let freebsd ~safe = on serialize (baseline ~safe)

let general_knobs =
  { paper_baseline with concurrent_flush = true; early_ack = true; cacheline_consolidation = true }

(* In-context flushing only exists under PTI; harmless to leave off when
   unsafe since there is no user PCID to flush. *)
let all_general ~safe =
  { (with_protocol (Paper general_knobs) ~safe) with in_context_flush = safe }

let all ~safe =
  let knobs = { general_knobs with cow_avoid_flush = true; userspace_batching = true } in
  { (with_protocol (Paper knobs) ~safe) with in_context_flush = safe }

(* Cumulative stacks in paper order: each stage is the previous one with
   one more step applied. *)
let stack ~safe steps =
  let _, stages =
    List.fold_left
      (fun (t, acc) (label, f) ->
        let t = f t in
        (t, (label, t) :: acc))
      (baseline ~safe, [])
      steps
  in
  List.rev stages

let general_steps ~safe =
  List.map
    (fun sw -> ("+" ^ sw.name, on sw))
    (if safe then general else List.filter (fun sw -> sw != in_context) general)

let cumulative_general ~safe = ("baseline", baseline ~safe) :: stack ~safe (general_steps ~safe)

let cumulative_workload ~safe =
  match general_steps ~safe @ [ ("+batching", fun t -> on cow (on batching t)) ] with
  | (_, first) :: rest -> stack ~safe (("concurrent", first) :: rest)
  | [] -> []

(* Canonical value key for the bench harness's cell memoization: every
   field, in declaration order, so two opts with equal keys are
   behaviourally identical. The exhaustive record patterns make adding a
   field without extending the key a compile error (warning 9), not a
   silent memoization bug. [%h] prints the float exactly. *)
let key { safe; in_context_flush; full_flush_threshold; spec_pte_recache_p; protocol; fault }
    =
  let protocol =
    match protocol with
    | Paper
        {
          concurrent_flush;
          early_ack;
          cacheline_consolidation;
          cow_avoid_flush;
          userspace_batching;
          batch_slots;
          serialized;
        } ->
        Printf.sprintf "paper(conc=%b eack=%b cline=%b cow=%b ubatch=%b slots=%d serial=%b)"
          concurrent_flush early_ack cacheline_consolidation cow_avoid_flush
          userspace_batching batch_slots serialized
    | Oracle | Sync_broadcast | Queue_spin -> protocol_label protocol
  in
  Printf.sprintf "safe=%b inctx=%b fft=%d specp=%h proto=%s fault=%s" safe in_context_flush
    full_flush_threshold spec_pte_recache_p protocol
    (match fault with
    | None -> "none"
    | Some Lazy_strawman -> "lazy"
    | Some Skip_deferred_flush -> "skip-deferred")

let pp fmt t =
  let flag name b = if b then Some name else None in
  let p = knobs t in
  let fault f =
    match (t.fault, f) with
    | Some Lazy_strawman, Lazy_strawman | Some Skip_deferred_flush, Skip_deferred_flush ->
        true
    | _ -> false
  in
  let flags =
    List.filter_map Fun.id
      [
        flag "concurrent" p.concurrent_flush;
        flag "early-ack" p.early_ack;
        flag "cacheline" p.cacheline_consolidation;
        flag "in-context" t.in_context_flush;
        flag "cow" p.cow_avoid_flush;
        flag "batching" p.userspace_batching;
        flag "UNSAFE-LAZY" (fault Lazy_strawman);
        flag "freebsd" p.serialized;
        flag "BUG-SKIP-DEFERRED" (fault Skip_deferred_flush);
        (match t.protocol with
        | Paper _ -> None
        | _ -> Some (String.uppercase_ascii (protocol_label t.protocol)));
      ]
  in
  Format.fprintf fmt "%s mode [%s]"
    (if t.safe then "safe" else "unsafe")
    (String.concat " " flags)
