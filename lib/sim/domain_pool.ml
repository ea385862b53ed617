(* tlblint: proven-bounds — workers read [order] at k < n = Array.length
   order, claimed via Atomic.fetch_and_add. *)
(* Fork-join execution of independent tasks over OCaml 5 domains.

   The bench harness uses this to run sim-run tasks in parallel: each task
   builds its own machines and engines, so tasks share no mutable state and
   the only cross-domain traffic is the atomic claim index and the per-slot
   result writes (distinct array cells, published by Domain.join before
   anyone reads them).

   Scheduling is longest-processing-time-first when [weights] are given:
   workers claim tasks in descending estimated-cost order, so the biggest
   runs start immediately and the tail of small tasks back-fills the gaps —
   the classic LPT bound keeps the makespan within 4/3 of optimal for
   independent tasks. Claim order is invisible to results: task [i]'s value
   always lands in slot [i], so any reduce that reads slots in index order
   is deterministic by construction, whatever the schedule. *)

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

type gc_totals = {
  pool_minor_words : float;
  pool_major_words : float;
  pool_promoted_words : float;
  pool_minor_collections : int;
  pool_major_collections : int;
}

let zero_gc_totals =
  {
    pool_minor_words = 0.0;
    pool_major_words = 0.0;
    pool_promoted_words = 0.0;
    pool_minor_collections = 0;
    pool_major_collections = 0;
  }

let add_gc_totals a b =
  {
    pool_minor_words = a.pool_minor_words +. b.pool_minor_words;
    pool_major_words = a.pool_major_words +. b.pool_major_words;
    pool_promoted_words = a.pool_promoted_words +. b.pool_promoted_words;
    pool_minor_collections = a.pool_minor_collections + b.pool_minor_collections;
    pool_major_collections = a.pool_major_collections + b.pool_major_collections;
  }

(* GC deltas are measured per worker domain: in OCaml 5 [Gc.quick_stat]'s
   allocation counters are domain-local while a domain is alive (a child's
   counters fold into its parent only at [Domain.join]), so sampling before
   and after a worker's stint and summing the deltas gives the true
   cross-domain total — and the caller's own sample must be taken *before*
   joining the children or it would double-count them. *)
let gc_delta_around f =
  let s0 = Gc.quick_stat () in
  let finally () = f (Gc.quick_stat ()) s0 in
  finally

let gc_delta s1 (s0 : Gc.stat) =
  {
    pool_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    pool_major_words = s1.Gc.major_words -. s0.Gc.major_words;
    pool_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    pool_minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    pool_major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
  }

(* fig10-class workloads allocate ~10⁹ minor words per run; the default
   256k-word minor heap turns that into tens of thousands of minor
   collections with heavy promotion. A larger per-domain minor arena and a
   laxer space_overhead trade memory for GC time. GC tuning can never
   change simulated results — the simulator is deterministic — only
   wall-clock. *)
let tuned_gc_params () =
  let g = Gc.get () in
  { g with Gc.minor_heap_size = 4 * 1024 * 1024; space_overhead = 200 }

let tune_current_domain () = Gc.set (tuned_gc_params ())

(* Claim order: indices sorted by descending weight (ties broken by index,
   so equal-weight tasks keep submission order and the order is a pure
   function of the weights). *)
let claim_order ~weights n =
  match weights with
  | None -> Array.init n (fun i -> i)
  | Some w ->
      if Array.length w <> n then
        invalid_arg "Domain_pool.run: weights length must match tasks";
      let order = Array.init n (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = Float.compare w.(b) w.(a) in
          if c <> 0 then c else Int.compare a b)
        order;
      order

let run_parallel ~jobs ~order ~tune_gc tasks =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        let i = Array.unsafe_get order k in
        results.(i) <-
          (try Some (Value (tasks.(i) ()))
           with e -> Some (Raised (e, Printexc.get_raw_backtrace ())));
        loop ()
      end
    in
    loop ()
  in
  let spawned = Stdlib.min (jobs - 1) (n - 1) in
  let worker_gc = Array.make (spawned + 1) zero_gc_totals in
  let spawn k =
    Domain.spawn (fun () ->
        if tune_gc then tune_current_domain ();
        let finish = gc_delta_around (fun s1 s0 -> worker_gc.(k + 1) <- gc_delta s1 s0) in
        worker ();
        finish ())
  in
  (* The calling domain is one of the workers; spawn the rest. *)
  let domains = Array.init spawned spawn in
  let finish = gc_delta_around (fun s1 s0 -> worker_gc.(0) <- gc_delta s1 s0) in
  worker ();
  finish ();
  Array.iter Domain.join domains;
  let gc = Array.fold_left add_gc_totals zero_gc_totals worker_gc in
  ( Array.map
      (function
        | Some (Value v) -> v
        | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results,
    gc )

let run ~jobs ?weights ?(tune_gc = false) ?gc_totals (tasks : (unit -> 'a) array) :
    'a array =
  (match weights with
  | Some w when Array.length w <> Array.length tasks ->
      invalid_arg "Domain_pool.run: weights length must match tasks"
  | _ -> ());
  if jobs <= 1 || Array.length tasks <= 1 then begin
    (* Inline sequential execution: no domains are spawned, so [jobs = 1]
       behaves exactly like a plain loop (same exception propagation, same
       evaluation order) — the parallel runner's byte-identical baseline. *)
    let finish =
      match gc_totals with
      | None -> ignore
      | Some cell -> gc_delta_around (fun s1 s0 -> cell := gc_delta s1 s0)
    in
    let results = Array.map (fun f -> f ()) tasks in
    finish ();
    results
  end
  else begin
    let order = claim_order ~weights (Array.length tasks) in
    let results, gc = run_parallel ~jobs ~order ~tune_gc tasks in
    Option.iter (fun cell -> cell := gc) gc_totals;
    results
  end

let default_jobs () = Domain.recommended_domain_count ()
