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
  let spawn _ =
    Domain.spawn (fun () ->
        if tune_gc then tune_current_domain ();
        worker ())
  in
  (* The calling domain is one of the workers; spawn the rest. *)
  let domains = Array.init spawned spawn in
  worker ();
  Array.iter Domain.join domains;
  Array.map
    (function
      | Some (Value v) -> v
      | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let run ~jobs ?weights ?(tune_gc = false) (tasks : (unit -> 'a) array) : 'a array =
  (match weights with
  | Some w when Array.length w <> Array.length tasks ->
      invalid_arg "Domain_pool.run: weights length must match tasks"
  | _ -> ());
  if jobs <= 1 || Array.length tasks <= 1 then
    (* Inline sequential execution: no domains are spawned, so [jobs = 1]
       behaves exactly like a plain loop (same exception propagation, same
       evaluation order) — the parallel runner's byte-identical baseline. *)
    Array.map (fun f -> f ()) tasks
  else
    let order = claim_order ~weights (Array.length tasks) in
    run_parallel ~jobs ~order ~tune_gc tasks

let default_jobs () = Domain.recommended_domain_count ()
