(* Unit tests for the simulation substrate: Rng, Stats, Engine,
   Process, Waitq, Trace. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Stats extremes and percentiles of a non-empty series. *)
let smin s = Option.get (Stats.min_opt s)
let smax s = Option.get (Stats.max_opt s)
let pct s p = Option.get (Stats.percentile_opt s p)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:99L and b = Rng.create ~seed:99L in
  for _ = 1 to 100 do
    check int_t "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  check bool_t "different streams" true (Rng.int a max_int <> Rng.int b max_int)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool_t "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create ~seed:5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* [bool ~p] is [float < p], so p = 0 never and p = 1 always holding
   brackets the uniform float in [0,1). *)
let test_rng_float_range () =
  let r = Rng.create ~seed:6L in
  for _ = 1 to 1000 do
    check bool_t "not below 0" false (Rng.bool r ~p:0.0);
    check bool_t "below 1" true (Rng.bool r ~p:1.0)
  done

let test_rng_bool_probability () =
  let r = Rng.create ~seed:7L in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check bool_t "close to 0.25" true (rate > 0.22 && rate < 0.28)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1L in
  let child = Rng.split parent in
  (* Drawing from the child must not change the parent's future values. *)
  let parent2 = Rng.create ~seed:1L in
  let _ = Rng.split parent2 in
  ignore (Rng.int child max_int);
  check int_t "parent unaffected by child draws" (Rng.int parent max_int)
    (Rng.int parent2 max_int)

(* --- Stats --- *)

let test_stats_empty () =
  let s = Stats.create () in
  check int_t "count" 0 (Stats.count s);
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "stddev" 0.0 (Stats.stddev s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check int_t "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 2.0 (smin s);
  check (Alcotest.float 1e-9) "max" 9.0 (smax s);
  (* Sample stddev of this classic dataset: sqrt(32/7). *)
  check (Alcotest.float 1e-6) "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p0" 1.0 (pct s 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (pct s 100.0);
  check (Alcotest.float 1e-9) "median" 50.5 (pct s 50.0)

let test_stats_percentile_interpolates () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  check (Alcotest.float 1e-9) "p50 between" 15.0 (pct s 50.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  Stats.merge_into a b;
  check int_t "count" 4 (Stats.count a);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean a)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 in
  Stats.Histogram.add h 5.0;
  Stats.Histogram.add h 15.0;
  Stats.Histogram.add h 15.5;
  Stats.Histogram.add h 999.0;
  (* counted as overflow, not folded into the last bucket *)
  Stats.Histogram.add h (-5.0);
  (* counted as underflow, not folded into the first bucket *)
  let counts = Stats.Histogram.counts h in
  check int_t "bucket 0" 1 counts.(0);
  check int_t "bucket 1" 2 counts.(1);
  check int_t "bucket 9" 0 counts.(9);
  check int_t "underflow" 1 (Stats.Histogram.underflow h);
  check int_t "overflow" 1 (Stats.Histogram.overflow h);
  check int_t "total" 5 (Stats.Histogram.total h)

let test_stats_empty_options () =
  let s = Stats.create () in
  check (Alcotest.option (Alcotest.float 0.0)) "min_opt" None (Stats.min_opt s);
  check (Alcotest.option (Alcotest.float 0.0)) "max_opt" None (Stats.max_opt s);
  check
    (Alcotest.option (Alcotest.float 0.0))
    "p50_opt" None
    (Stats.percentile_opt s 50.0);
  check (Alcotest.option (Alcotest.float 0.0)) "p0_opt" None (Stats.percentile_opt s 0.0)

(* NaN must not poison min/max or make percentile order unspecified:
   Float.compare is total, NaN sorts below every number. Infinities pass
   through as ordinary extremes. *)
let test_stats_nan_inf () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; Float.nan; 3.0 ];
  check int_t "count includes nan" 3 (Stats.count s);
  check (Alcotest.float 1e-9) "min ignores nan" 1.0 (smin s);
  check (Alcotest.float 1e-9) "max ignores nan" 3.0 (smax s);
  (* sorted = [nan; 1; 3]: deterministic, so p100 = 3 and p50 = 1. *)
  check (Alcotest.float 1e-9) "p100 with nan present" 3.0 (pct s 100.0);
  check (Alcotest.float 1e-9) "p50 with nan present" 1.0 (pct s 50.0);
  let i = Stats.create () in
  List.iter (Stats.add i) [ 1.0; Float.infinity ];
  check Alcotest.bool "mean is +inf" true (Stats.mean i = Float.infinity);
  check Alcotest.bool "max is +inf" true (smax i = Float.infinity);
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:2 in
  Stats.Histogram.add h Float.nan;
  Stats.Histogram.add h Float.infinity;
  Stats.Histogram.add h Float.neg_infinity;
  check int_t "hist nan" 1 (Stats.Histogram.nan_count h);
  check int_t "hist +inf overflows" 1 (Stats.Histogram.overflow h);
  check int_t "hist -inf underflows" 1 (Stats.Histogram.underflow h);
  check (Alcotest.array int_t) "bins untouched" [| 0; 0 |] (Stats.Histogram.counts h)

(* Past [cap] retained samples the percentile buffer thins by systematic
   stride-doubling: bounded memory, still a pure function of the stream. *)
let test_stats_reservoir_bounded_deterministic () =
  let fill () =
    let s = Stats.create ~cap:8 () in
    for i = 1 to 1000 do
      Stats.add s (float_of_int i)
    done;
    s
  in
  let s = fill () in
  check int_t "count unbounded" 1000 (Stats.count s);
  check Alcotest.bool "retained bounded" true (Stats.retained s <= 8);
  check Alcotest.bool "marked subsampled" false (Stats.exact_percentiles s);
  check (Alcotest.float 1e-9) "moments stay exact: mean" 500.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min exact" 1.0 (smin s);
  check (Alcotest.float 1e-9) "max exact" 1000.0 (smax s);
  let s' = fill () in
  check (Alcotest.float 0.0) "same stream, same p50" (pct s 50.0)
    (pct s' 50.0);
  check (Alcotest.float 0.0) "same stream, same p99" (pct s 99.0)
    (pct s' 99.0);
  (* Below the cap nothing is dropped: percentiles stay exact. *)
  let e = Stats.create ~cap:8 () in
  List.iter (Stats.add e) [ 4.0; 1.0; 3.0; 2.0 ];
  check Alcotest.bool "exact below cap" true (Stats.exact_percentiles e);
  check (Alcotest.float 1e-9) "exact p50" 2.5 (pct e 50.0)

(* merge_into must agree with having streamed everything into one
   accumulator: exact for the moments (Chan's formula) and for the
   percentiles while both sides are below cap. *)
let test_stats_merge_matches_single_stream () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  for i = 1 to 50 do
    Stats.add a (float_of_int i);
    Stats.add whole (float_of_int i)
  done;
  for i = 51 to 100 do
    Stats.add b (float_of_int i);
    Stats.add whole (float_of_int i)
  done;
  Stats.merge_into a b;
  check int_t "count" (Stats.count whole) (Stats.count a);
  check (Alcotest.float 1e-9) "mean" (Stats.mean whole) (Stats.mean a);
  check (Alcotest.float 1e-6) "stddev" (Stats.stddev whole) (Stats.stddev a);
  check (Alcotest.float 0.0) "min" (smin whole) (smin a);
  check (Alcotest.float 0.0) "max" (smax whole) (smax a);
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%.0f" p)
        (pct whole p) (pct a p))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]

let test_histogram_merge () =
  let a = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 in
  let b = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 in
  List.iter (Stats.Histogram.add a) [ 5.0; 15.0; -1.0 ];
  List.iter (Stats.Histogram.add b) [ 5.0; 200.0; Float.nan ];
  Stats.Histogram.merge_into a b;
  let counts = Stats.Histogram.counts a in
  check int_t "bucket 0 summed" 2 counts.(0);
  check int_t "bucket 1" 1 counts.(1);
  check int_t "underflow" 1 (Stats.Histogram.underflow a);
  check int_t "overflow" 1 (Stats.Histogram.overflow a);
  check int_t "nan" 1 (Stats.Histogram.nan_count a);
  check int_t "total" 6 (Stats.Histogram.total a);
  let c = Stats.Histogram.create ~lo:0.0 ~hi:50.0 ~buckets:10 in
  Alcotest.check_raises "config mismatch rejected"
    (Invalid_argument "Histogram.merge_into: bucket configurations differ") (fun () ->
      Stats.Histogram.merge_into a c)

(* --- Engine --- *)

let test_engine_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Helpers.schedule e ~delay:30 (fun () -> log := 30 :: !log);
  Helpers.schedule e ~delay:10 (fun () -> log := 10 :: !log);
  Helpers.schedule e ~delay:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  check (Alcotest.list int_t) "fired in time order" [ 10; 20; 30 ] (List.rev !log);
  check int_t "clock at last event" 30 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Helpers.schedule e ~delay:7 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list int_t) "insertion order at ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Helpers.schedule e ~delay:5 (fun () ->
      log := "a" :: !log;
      Helpers.schedule e ~delay:5 (fun () -> log := "b" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "nested fires" [ "a"; "b" ] (List.rev !log);
  check int_t "time advanced" 10 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Helpers.schedule e ~delay:10 (fun () -> ());
  Engine.run e;
  let tag = Engine.register_handler e (fun _ _ -> ()) in
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_tag: negative delay") (fun () ->
      Engine.schedule_tag e ~delay:(-5) ~tag ~a:0 ~b:0)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Helpers.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 10; 20; 30 ];
  Engine.run_until e ~time:20;
  check (Alcotest.list int_t) "only up to 20" [ 10; 20 ] (List.rev !fired);
  check int_t "one pending" 1 (Engine.live_rows e)

(* --- Engine: packed-key boundaries --- *)

(* The priority key packs (time, seq) into one int; [max_time] is the last
   time the 38-bit time field can hold. Scheduling past it must be
   rejected, and landing exactly on it must work. *)
let max_time = max_int lsr 25

let test_engine_clock_overflow_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "schedule past max_time"
    (Invalid_argument
       (Printf.sprintf "Engine.schedule_tag: time %d overflows the clock" (max_time + 1)))
    (fun () -> Helpers.schedule e ~delay:(max_time + 1) (fun () -> ()));
  Alcotest.check_raises "run_until past max_time"
    (Invalid_argument
       (Printf.sprintf "Engine.run_until: time %d overflows the clock"
          (max_time + 1)))
    (fun () -> Engine.run_until e ~time:(max_time + 1));
  let ran = ref false in
  Helpers.schedule e ~delay:max_time (fun () -> ran := true);
  Engine.run e;
  check bool_t "boundary event ran" true !ran;
  check int_t "clock lands on max_time" max_time (Engine.now e)

(* The suspend-free fast path must refuse to move [now] past [max_time]
   (the slow path then reports the overflow via [schedule_tag]). *)
let test_engine_try_advance_clock_boundary () =
  let e = Engine.create () in
  Helpers.schedule e ~delay:(max_time - 5) (fun () -> ());
  Engine.run e;
  check bool_t "advance inside the bound" true (Engine.try_advance e ~cycles:3);
  check int_t "advanced" (max_time - 2) (Engine.now e);
  check bool_t "advance past the bound declined" false
    (Engine.try_advance e ~cycles:10);
  check int_t "clock unchanged on decline" (max_time - 2) (Engine.now e);
  check bool_t "advance onto the boundary" true (Engine.try_advance e ~cycles:2);
  check int_t "at max_time" max_time (Engine.now e);
  check bool_t "no advance past max_time" false (Engine.try_advance e ~cycles:1);
  Alcotest.check_raises "negative cycles"
    (Invalid_argument "Engine.try_advance: negative cycles") (fun () ->
      ignore (Engine.try_advance e ~cycles:(-1) : bool))

(* Drive [seq] past its 25-bit field: renumbering must preserve FIFO order
   for same-time events and keep far-pending events intact. *)
let test_engine_seq_renumber_preserves_fifo () =
  let e = Engine.create () in
  let far = ref false in
  Helpers.schedule e ~delay:1_000_000_000 (fun () -> far := true);
  let seq_limit = 1 lsl 25 in
  let ran = ref 0 in
  let batch = 4096 in
  let rounds = (seq_limit / batch) + 2 in
  for _ = 1 to rounds do
    for _ = 1 to batch do
      Helpers.schedule e ~delay:1 (fun () -> incr ran)
    done;
    Engine.run_until e ~time:(Engine.now e + 1)
  done;
  check int_t "every event ran across the renumber" (rounds * batch) !ran;
  let log = ref [] in
  List.iter
    (fun i -> Helpers.schedule e ~delay:5 (fun () -> log := i :: !log))
    [ 1; 2; 3 ];
  Engine.run e;
  check bool_t "far event survived the renumber" true !far;
  check (Alcotest.list int_t) "FIFO after renumber" [ 1; 2; 3 ] (List.rev !log)

(* --- Process / Waitq --- *)

let test_process_delay_advances_time () =
  let e = Engine.create () in
  let finished = ref (-1) in
  Process.spawn e ~name:"p" (fun () ->
      Process.delay e 100;
      Process.delay e 50;
      finished := Engine.now e);
  Engine.run e;
  check int_t "150 cycles" 150 !finished

let test_process_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  Process.spawn e ~name:"a" (fun () ->
      Process.delay e 10;
      log := ("a", Engine.now e) :: !log;
      Process.delay e 20;
      log := ("a2", Engine.now e) :: !log);
  Process.spawn e ~name:"b" (fun () ->
      Process.delay e 15;
      log := ("b", Engine.now e) :: !log);
  Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int_t))
    "interleaved order"
    [ ("a", 10); ("b", 15); ("a2", 30) ]
    (List.rev !log)

let test_process_failure_propagates () =
  let e = Engine.create () in
  Process.spawn e ~name:"boom" (fun () ->
      Process.delay e 5;
      failwith "bang");
  (match Engine.run e with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Process.Process_failure (name, Failure msg) ->
      check Alcotest.string "process name" "boom" name;
      check Alcotest.string "message" "bang" msg
  | exception e -> raise e);
  ()

let test_process_self_name () =
  let e = Engine.create () in
  let seen = ref "" in
  Process.spawn e ~name:"worker-7" (fun () ->
      Process.delay e 1;
      seen := Engine.current_name e);
  Engine.run e;
  check Alcotest.string "name visible after resume" "worker-7" !seen

let test_waitq_signal_all () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 1 to 3 do
    Process.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
        Waitq.wait q;
        woken := i :: !woken)
  done;
  Process.spawn e ~name:"signaller" (fun () ->
      Process.delay e 100;
      Waitq.signal_all q);
  Engine.run e;
  check int_t "all woken" 3 (List.length !woken);
  check int_t "no waiters left" 0 (Waitq.waiters q)

let test_waitq_signal_one_fifo () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 1 to 3 do
    Process.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
        Waitq.wait q;
        woken := i :: !woken)
  done;
  Process.spawn e ~name:"signaller" (fun () ->
      Process.delay e 10;
      Waitq.signal_one q;
      Process.delay e 10;
      Waitq.signal_one q);
  Engine.run e;
  check (Alcotest.list int_t) "FIFO wakeups" [ 1; 2 ] (List.rev !woken);
  check int_t "one still waiting" 1 (Waitq.waiters q)

let test_completion () =
  let e = Engine.create () in
  let c = Waitq.Completion.create e in
  let order = ref [] in
  Process.spawn e ~name:"waiter" (fun () ->
      Waitq.Completion.wait c;
      order := "woken" :: !order;
      (* A second wait after firing returns immediately. *)
      Waitq.Completion.wait c;
      order := "again" :: !order);
  Process.spawn e ~name:"firer" (fun () ->
      Process.delay e 42;
      Waitq.Completion.fire c);
  Engine.run e;
  check bool_t "fired" true (Waitq.Completion.is_fired c);
  check (Alcotest.list Alcotest.string) "ordering" [ "woken"; "again" ] (List.rev !order)

(* --- Suspension allocation ---

   Exact minor-word counts for each way a process suspends. A count is the
   difference between two runs that differ only in iteration count, so
   set-up (spawn, arena and table growth) cancels out. Native code reads
   [Gc.minor_words] unboxed, so the probe itself allocates nothing. *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* A handler that calls [f] and reschedules itself one cycle ahead [a]
   more times: an event every cycle, so no delay or tick can take the
   [try_advance] fast path past it. Allocation-free when [f] is. *)
let cycle_chain e f =
  let tag = ref (-1) in
  tag :=
    Engine.register_handler e (fun left _ ->
        f ();
        if left > 0 then Engine.schedule_tag e ~delay:1 ~tag:!tag ~a:(left - 1) ~b:0);
  !tag

(* Two processes interleaving [delay 3]: each sleep finds the other's
   wake-up pending inside its window, so every one suspends. *)
let test_alloc_suspended_delay () =
  let words n =
    let e = Engine.create () in
    let body () =
      for _ = 1 to n do
        Process.delay e 3
      done
    in
    let w =
      minor_words (fun () ->
          Process.spawn e ~name:"a" body;
          Process.spawn e ~name:"b" body;
          Engine.run e)
    in
    check int_t "every delay suspended" 0 (Engine.advances e);
    w
  in
  let n1 = 100 and n2 = 1100 in
  check int_t "4 words per suspended delay (continuation + its slot)"
    (4 * 2 * (n2 - n1))
    (words n2 - words n1)

(* One [tick_sleep] whose step says "not yet" at every boundary: each
   boundary is an engine event (a chain event sits at every cycle), and an
   idle one re-arms without resuming the process. *)
let test_alloc_idle_tick_boundary () =
  let words k =
    let e = Engine.create () in
    let chain = cycle_chain e ignore in
    let left = ref k in
    let step () =
      decr left;
      if !left = 0 then 0 else 1
    in
    let w =
      minor_words (fun () ->
          Engine.schedule_tag e ~delay:0 ~tag:chain ~a:(k + 4) ~b:0;
          Process.spawn e ~name:"ticker" (fun () -> Process.tick_sleep e ~first:1 step);
          Engine.run e)
    in
    check int_t "every boundary was an engine event" 0 (Engine.advances e);
    w
  in
  check int_t "an idle boundary allocates nothing" 0 (words 2000 - words 200)

(* [tick_sleep]s that each suspend once and resume at their first
   boundary: the suspension itself, without idle boundaries. *)
let test_alloc_tick_suspension () =
  let words n =
    let e = Engine.create () in
    let chain = cycle_chain e ignore in
    let step () = 0 in
    minor_words (fun () ->
        Engine.schedule_tag e ~delay:0 ~tag:chain ~a:(n + 4) ~b:0;
        Process.spawn e ~name:"ticker" (fun () ->
            for _ = 1 to n do
              Process.tick_sleep e ~first:1 step
            done);
        Engine.run e)
  in
  let n1 = 100 and n2 = 1100 in
  check int_t "4 words per tick suspension" (4 * (n2 - n1)) (words n2 - words n1)

(* A waiter parked on a wait queue, woken by an allocation-free engine
   handler once per cycle. *)
let test_alloc_wait_signal () =
  let words n =
    let e = Engine.create () in
    let q = Waitq.create e in
    let chain = cycle_chain e (fun () -> Waitq.signal_one q) in
    let w =
      minor_words (fun () ->
          Process.spawn e ~name:"waiter" (fun () ->
              for _ = 1 to n do
                Waitq.wait q
              done);
          Engine.schedule_tag e ~delay:1 ~tag:chain ~a:(n - 1) ~b:0;
          Engine.run e)
    in
    check int_t "every wait was woken" 0 (Waitq.waiters q);
    w
  in
  let n1 = 100 and n2 = 1100 in
  let per = (words n2 - words n1) / (n2 - n1) in
  check bool_t (Printf.sprintf "wait + signal_one costs %d <= 5 words" per) true (per <= 5)

(* Spawning and running a trivial process, after a first spawn has grown
   the engine's arena and handler table. 68 words is the cost of the
   closure-per-process design this replaced. *)
let test_alloc_spawn () =
  let e = Engine.create () in
  let body () = () in
  Process.spawn e ~name:"warm" body;
  Engine.run e;
  let w =
    minor_words (fun () ->
        Process.spawn e ~name:"p" body;
        Engine.run e)
  in
  check bool_t (Printf.sprintf "spawn + run costs %d <= 68 words" w) true (w <= 68)

(* A wake whose process is no longer parked must not resume it: the
   second wake for one park fires while the process sleeps, and raises. *)
let test_process_stale_wake () =
  let e = Engine.create () in
  let tag = ref (-1) and after = ref (-1) in
  Process.spawn e ~name:"sleeper" (fun () ->
      tag := Process.self_tag e;
      Process.park ();
      Process.delay e 100;
      after := Engine.now e);
  Process.spawn e ~name:"waker" (fun () ->
      Process.delay e 10;
      Process.wake e !tag;
      Process.wake e !tag);
  Alcotest.check_raises "second wake refused"
    (Invalid_argument "Process sleeper resumed twice") (fun () -> Engine.run e);
  check int_t "the sleep was not cut short" (-1) !after;
  Alcotest.check_raises "self_tag outside a process"
    (Invalid_argument "Process.self_tag: not inside a process") (fun () ->
      ignore (Process.self_tag e : int))

(* Sleeps, ticks and waits on one engine, logged as (who, when). The
   suspension argument travels through a slot on the engine, so two
   engines on two domains must not see each other's. *)
let suspension_mix rounds =
  let e = Engine.create () in
  let q = Waitq.create e in
  let log = ref [] and polls = ref 0 in
  let note who = log := (who, Engine.now e) :: !log in
  Process.spawn e ~name:"sleeper" (fun () ->
      for i = 1 to rounds do
        Process.delay e (1 + (i mod 7));
        if i mod 3 = 0 then Waitq.signal_one q;
        note "sleeper"
      done;
      Waitq.signal_all q);
  Process.spawn e ~name:"waiter" (fun () ->
      for _ = 1 to rounds / 3 do
        Waitq.wait q;
        note "waiter"
      done);
  Process.spawn e ~name:"ticker" (fun () ->
      for i = 1 to rounds / 4 do
        let left = ref (1 + (i mod 5)) in
        Process.tick_sleep e ~first:(1 + (i mod 3)) (fun () ->
            incr polls;
            decr left;
            if !left = 0 then 0 else 2);
        note "ticker"
      done);
  Engine.run e;
  (List.rev !log, !polls, Engine.events_run e, Engine.now e)

(* --- Chains are delays ---

   Processes run random programs of delays, actions on a shared counter
   and k-step runs (a delay, then an action, k times), some of which end
   early, before step [stop]. Costs include zero, which makes no event,
   and long sleeps, whose windows are often empty so [try_advance]
   succeeds. Every program runs three ways: with each run written as
   [delay]s; as one [Process.chain] whose steps do the actions at their
   boundaries and whose step returns 0 at [stop]; and as one
   [Machine.chain_item] whose visit ends the run with a negative cost at
   [stop]. The (time, actor, counter) logs, [events_run] and [advances]
   must be identical, both in (time, seq) order and under a seeded
   chooser, and the runs must suspend less. *)
type chain_instr = Wait of int | Act | Run of int list * int

type chain_mode = Delays | Chained | Walked

let random_cost rng =
  match Rng.int rng 4 with
  | 0 -> 0
  | 1 -> 1 + Rng.int rng 3
  | 2 -> 5 + Rng.int rng 20
  | _ -> 200 + Rng.int rng 500

let random_program rng =
  List.init (4 + Rng.int rng 12) (fun _ ->
      match Rng.int rng 3 with
      | 0 -> Wait (random_cost rng)
      | 1 -> Act
      | _ ->
          let k = 1 + Rng.int rng 6 in
          Run (List.init k (fun _ -> random_cost rng), Rng.int rng (k + 2)))

let run_programs mode ?chooser programs =
  let m = Machine.create ~topo:(Topology.flat 1) ~opts:(Opts.baseline ~safe:false) () in
  let e = m.Machine.engine in
  Option.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      Engine.set_chooser e ~horizon:8 (fun n -> Rng.int rng n))
    chooser;
  let counter = ref 0 and log = ref [] in
  let act who =
    incr counter;
    log := (Engine.now e, who, !counter) :: !log
  in
  let run who steps stop =
    let steps = List.filteri (fun i _ -> i < stop) steps in
    match mode with
    | Delays ->
        List.iter
          (fun d ->
            Process.delay e d;
            act who)
          steps
    | Chained ->
        (* [paid]: the head's cost has elapsed, its action is due. *)
        let rest = ref steps and paid = ref false in
        let rec step () =
          match !rest with
          | [] -> 0
          | d :: tl ->
              if !paid then begin
                paid := false;
                act who;
                rest := tl;
                step ()
              end
              else begin
                paid := true;
                if d > 0 then d else step ()
              end
        in
        Process.chain e step
    | Walked ->
        (* Phase [2i] returns step [i]'s cost, phase [2i + 1] acts. *)
        let costs = Array.of_list steps in
        Machine.chain_item m ~lead:0 0 (fun _ phase ->
            if phase land 1 = 1 then begin
              act who;
              0
            end
            else if phase / 2 < Array.length costs then costs.(phase / 2)
            else -1)
  in
  List.iteri
    (fun i program ->
      let who = Printf.sprintf "p%d" i in
      Process.spawn e ~name:who (fun () ->
          List.iter
            (function
              | Wait d -> Process.delay e d
              | Act -> act who
              | Run (steps, stop) -> run who steps stop)
            program))
    programs;
  let s0 = Engine.suspensions () in
  Engine.run e;
  ((List.rev !log, Engine.events_run e, Engine.advances e), Engine.suspensions () - s0)

let test_chain_model () =
  let log_t =
    Alcotest.(triple (list (triple int string int)) int int)
  in
  let advanced = ref 0 and saved = ref 0 and ended_early = ref 0 in
  for seed = 1 to 60 do
    let rng = Rng.create ~seed:(Int64.of_int seed) in
    let programs = List.init (2 + Rng.int rng 4) (fun _ -> random_program rng) in
    List.iter
      (function
        | Run (steps, stop) when stop < List.length steps -> incr ended_early
        | Run _ | Wait _ | Act -> ())
      (List.concat programs);
    List.iter
      (fun chooser ->
        let delays, s_delays = run_programs Delays ?chooser programs in
        let _, _, advances = delays in
        advanced := !advanced + advances;
        List.iter
          (fun (mode, name) ->
            let runs, s_runs = run_programs mode ?chooser programs in
            check log_t (Printf.sprintf "seed %d, %s" seed name) delays runs;
            check bool_t "runs never suspend more" true (s_runs <= s_delays);
            saved := !saved + (s_delays - s_runs))
          [ (Chained, "Process.chain"); (Walked, "Machine.chain_item") ])
      [ None; Some (Int64.of_int seed) ]
  done;
  check bool_t "some runs ended early" true (!ended_early > 0);
  check bool_t "some windows took the fast path" true (!advanced > 0);
  check bool_t "runs saved suspensions" true (!saved > 0)

(* --- An IRQ step handler runs the same detached and at a service point ---

   The same random programs, with each [Run] now an IRQ: the program's
   process posts it to its own CPU, and its step does the run's actions
   at its boundaries, the step form of [Chained] above. Every IRQ runs
   two ways: detached, its CPU idle and unoccupied, driven by the CPU's
   dispatch events; and at a service point, its CPU occupied in user
   mode, by a process spawned to service the CPU's IRQs. A post that
   finds no drain running starts one either way, with one event at the
   current instant (the dispatch start, or the process start), and either
   start finds a drain running a no-op. The (time, actor, counter) logs,
   [events_run], [advances] and the CPUs' IRQ counters must be identical,
   in (time, seq) order and under a seeded chooser, and the detached runs
   must suspend less: a servicing process suspends in its handlers'
   contended windows, and a detached handler has no process to suspend. *)
let run_irq_programs ~detached ?chooser programs =
  let n = List.length programs in
  let m = Machine.create ~topo:(Topology.flat n) ~opts:(Opts.baseline ~safe:false) () in
  let e = m.Machine.engine in
  Option.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      Engine.set_chooser e ~horizon:8 (fun n -> Rng.int rng n))
    chooser;
  let counter = ref 0 and log = ref [] in
  let act who =
    incr counter;
    log := (Engine.now e, who, !counter) :: !log
  in
  let handlers = ref 0 in
  let irq who steps stop =
    let steps = Array.of_list (List.filteri (fun i _ -> i < stop) steps) in
    let step _ k =
      if k > 0 then act who;
      if k < Array.length steps then steps.(k) else -1
    in
    { Cpu.vector = 1; maskable = true; step }
  in
  if not detached then Array.iter Cpu.occupy m.Machine.cpus;
  List.iteri
    (fun i program ->
      let who = Printf.sprintf "p%d" i in
      let cpu = Machine.cpu m i in
      Process.spawn e ~name:who (fun () ->
          List.iter
            (function
              | Wait d -> Process.delay e d
              | Act -> act who
              | Run (steps, stop) ->
                  incr handlers;
                  Cpu.post_irq cpu (irq (Printf.sprintf "irq%d" i) steps stop);
                  if (not detached) && not (Cpu.draining cpu) then
                    Process.spawn e ~name:"servicer" (fun () -> Cpu.service_pending cpu))
            program))
    programs;
  let s0 = Engine.suspensions () in
  Engine.run e;
  let irqs =
    Array.to_list
      (Array.map (fun c -> (Cpu.irqs_handled c, Cpu.interrupted_cycles c)) m.Machine.cpus)
  in
  check int_t "every irq handled" !handlers
    (List.fold_left (fun a (h, _) -> a + h) 0 irqs);
  ( (List.rev !log, (Engine.events_run e, Engine.advances e), irqs),
    Engine.suspensions () - s0 )

let test_irq_step_model () =
  let result_t =
    Alcotest.(
      triple (list (triple int string int)) (pair int int) (list (pair int int)))
  in
  (* The servicing processes' suspensions: all the others are the same
     either way. *)
  let saved name ?chooser programs =
    let serviced, s_serviced = run_irq_programs ~detached:false ?chooser programs in
    let detached, s_detached = run_irq_programs ~detached:true ?chooser programs in
    check result_t name serviced detached;
    check bool_t "detached handlers never suspend more" true (s_detached <= s_serviced);
    s_serviced - s_detached
  in
  let contended = ref 0 in
  for seed = 1 to 60 do
    let rng = Rng.create ~seed:(Int64.of_int (0x1a5 + seed)) in
    let programs = List.init (2 + Rng.int rng 4) (fun _ -> random_program rng) in
    List.iter
      (fun chooser ->
        if saved (Printf.sprintf "seed %d" seed) ?chooser programs > 0 then incr contended)
      [ None; Some (Int64.of_int seed) ]
  done;
  check bool_t "detached handlers saved suspensions" true (!contended > 0);
  (* Three IRQs posted at one instant, each with windows that the other
     program's one-cycle waits contend: the service point that finds them
     drains all three in one charge run, which suspends once. *)
  let burst =
    [
      [ Run ([ 40; 40 ], 2); Run ([ 40 ], 1); Run ([ 40; 40; 40 ], 3) ];
      List.init 3000 (fun _ -> Wait 1);
    ]
  in
  List.iter
    (fun chooser ->
      check int_t "one suspension for a drain of three IRQs" 1
        (saved "burst" ?chooser burst))
    [ None; Some 7L ]

let test_process_two_domains () =
  let rounds = 20_000 in
  let expected = suspension_mix rounds in
  let a = Domain.spawn (fun () -> suspension_mix rounds)
  and b = Domain.spawn (fun () -> suspension_mix rounds) in
  let ra = Domain.join a and rb = Domain.join b in
  check bool_t "domain 1 = sequential run" true (ra = expected);
  check bool_t "domain 2 = sequential run" true (rb = expected)

(* --- Trace --- *)

let records t =
  let acc = ref [] in
  Trace.iter t (fun r -> acc := r :: !acc);
  List.rev !acc

let event_text r = Format.asprintf "%a" Trace.pp_event r.Trace.event

let test_trace_disabled_by_default () =
  let e = Engine.create () in
  let t = Trace.create e in
  Trace.emitf t ~actor:"x" "hello";
  check int_t "no records" 0 (List.length (records t))

let test_trace_records_in_order () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true e in
  Process.spawn e ~name:"p" (fun () ->
      Trace.emitf t ~actor:"p" "first";
      Process.delay e 10;
      Trace.emitf t ~actor:"p" "second at %d" (Engine.now e));
  Engine.run e;
  match records t with
  | [ r1; r2 ] ->
      check int_t "t0" 0 r1.Trace.time;
      check int_t "t10" 10 r2.Trace.time;
      check Alcotest.string "fmt" "second at 10" (event_text r2)
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let test_trace_typed_events () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true e in
  Trace.event t ~cpu:3 (Trace.Ipi_send { seq = 7; target = 5 });
  Trace.event t ~cpu:5 (Trace.Ipi_ack { seq = 7; initiator = 3; early = true });
  (match records t with
  | [ s; a ] ->
      check int_t "sender cpu" 3 s.Trace.cpu;
      check Alcotest.string "send text" "IPI -> cpu5 (seq 7)" (event_text s);
      check Alcotest.string "ack text" "early ack to cpu3 (seq 7)"
        (event_text a)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
  check bool_t "emitf is Msg" true
    (Trace.emitf t ~actor:"x" "n=%d" 4;
     match List.rev (records t) with
     | { Trace.event = Trace.Msg "n=4"; cpu = -1; _ } :: _ -> true
     | _ -> false)

let test_trace_ring_buffer_cap () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true ~max_records:4 e in
  for i = 1 to 10 do
    Trace.emitf t ~actor:"p" "ev%d" i
  done;
  check int_t "capped length" 4 (Trace.length t);
  check int_t "dropped count" 6 (Trace.dropped t);
  check
    (Alcotest.list Alcotest.string)
    "keeps newest, oldest-first"
    [ "ev7"; "ev8"; "ev9"; "ev10" ]
    (List.map event_text (records t));
  (* Lifting the cap resumes unbounded growth without losing the tail. *)
  Trace.set_max_records t None;
  Trace.emitf t ~actor:"p" "ev11";
  check int_t "grows again" 5 (Trace.length t);
  Trace.clear t;
  check int_t "clear resets length" 0 (Trace.length t);
  check int_t "clear resets dropped" 0 (Trace.dropped t)

(* The engine's calendar-ring size: events less than this many cycles
   ahead go to the ring, later ones to the heap. The model tests below
   straddle it; they hold for any ring size. *)
let ring_size = 2048

(* --- Event pool model test ---

   Randomized schedule / fire / recycle sequences against a simple model,
   checking the pooled-event invariants end to end:

   - every scheduled callback fires exactly once (exact multiset of ids,
     children included), rows recycled by earlier rounds included;
   - fire times are the scheduled times, delivered monotonically, and
     same-time top-level events keep insertion order.

   The ring-shaped cases: bursts of same-time events (one ring slot holds
   many, in FIFO order); a slot popped to empty and appended again, at the
   same time and one ring lap later; delays across [0, 3 * ring_size], so
   events land in the heap too; a chooser installed mid-run, which moves
   the ring's multi-event slots into the heap, and cleared again; and,
   in the last round, a sequence-number renumbering with bursts pending.

   The rng only drives test-case generation; the engine itself stays
   deterministic, so a failure reproduces from the fixed seed. *)
let test_engine_pool_model () =
  let rng = Rng.create ~seed:0xd15ea5eL in
  let e = Engine.create () in
  let scheduled = ref [] (* (id, time) of everything ever scheduled *)
  and fired = ref [] (* (id, time) in fire order, newest first *)
  and live = Hashtbl.create 64 (* id -> scheduled fire time, pending only *)
  and top_seq = ref [] (* (time, insertion index, id) of top-level events *)
  and next_id = ref 0
  and gop = ref 0 (* global insertion counter, never reset *) in
  let fresh_id time =
    let id = !next_id in
    incr next_id;
    scheduled := (id, time) :: !scheduled;
    Hashtbl.replace live id time;
    id
  in
  let fire id =
    let time = Engine.now e in
    check bool_t "fires at its scheduled time" true (Hashtbl.find live id = time);
    Hashtbl.remove live id;
    fired := (id, time) :: !fired
  in
  (* Tagged dispatch: one shared handler, the event's [a] is the model id. *)
  let tag = Engine.register_handler e (fun a _b -> fire a) in
  let n_ops = 400 in
  let top time id = top_seq := (time, !gop, id) :: !top_seq in
  let plain d =
    let id = fresh_id (Engine.now e + d) in
    top (Engine.now e + d) id;
    Engine.schedule_tag e ~delay:d ~tag ~a:id ~b:0
  in
  (* [seq] renumbers once it reaches [2^25 - 1]; every schedule so far
     took one. Burning up to [margin] short of that on an idle engine
     makes the renumbering land inside the next round. *)
  let noop = Engine.register_handler e (fun _ _ -> ()) in
  let burn_seq_to_renumber ~margin =
    let left = ref ((1 lsl 25) - 1 - List.length !scheduled - margin) in
    while !left > 0 do
      for _ = 1 to Int.min 1024 !left do
        Engine.schedule_tag e ~delay:0 ~tag:noop ~a:0 ~b:0
      done;
      left := !left - 1024;
      Engine.run e
    done
  in
  for round = 1 to 5 do
    if round = 5 then burn_seq_to_renumber ~margin:300;
    for _op = 1 to n_ops do
      incr gop;
      let op = !gop in
      let now = Engine.now e in
      match Rng.int rng 11 with
      | 0 | 1 | 2 ->
          let d = Rng.int rng 50 in
          let id = fresh_id (now + d) in
          top_seq := (now + d, op, id) :: !top_seq;
          Helpers.schedule e ~delay:d (fun () -> fire id)
      | 3 | 4 ->
          let d = Rng.int rng 50 in
          let id = fresh_id (now + d) in
          top_seq := (now + d, op, id) :: !top_seq;
          Engine.schedule_tag e ~delay:d ~tag ~a:id ~b:0
      | 5 ->
          (* A parent whose callback schedules children at fire time —
             delay 0 children land in the same-cycle batch path. *)
          let d = Rng.int rng 50 and d1 = Rng.int rng 4 and d2 = Rng.int rng 4 in
          let id = fresh_id (now + d) in
          top_seq := (now + d, op, id) :: !top_seq;
          Helpers.schedule e ~delay:d (fun () ->
              fire id;
              let c1 = fresh_id (Engine.now e + d1)
              and c2 = fresh_id (Engine.now e + d2) in
              Helpers.schedule e ~delay:d1 (fun () -> fire c1);
              Engine.schedule_tag e ~delay:d2 ~tag ~a:c2 ~b:0)
      | 6 | 7 ->
          (* A burst at one time: one ring slot holds them all. *)
          let d = Rng.int rng 50 in
          for _ = 0 to 4 + Rng.int rng 12 do
            plain d
          done
      | 8 ->
          (* Pop whatever is due, then append at the instant just popped
             from (the slot may have emptied) and one ring lap later. *)
          plain 0;
          ignore (Engine.step e : bool);
          plain 0;
          plain ring_size
      | 9 -> plain (Rng.int rng ((3 * ring_size) + 1))
      | _ ->
          (* A chooser that always takes the earliest candidate keeps the
             (time, seq) order, but installing it moves every ring event
             to the heap. Cleared again on a later draw. *)
          if round mod 2 = 1 then Engine.set_chooser e (fun _ -> 0)
          else Engine.clear_chooser e
    done;
    Engine.clear_chooser e;
    Engine.run e;
    (* Queue drained: recycled rows from this round are reused by the next
       round's schedules. *)
    check int_t "queue drained" 0 (Engine.live_rows e)
  done;
  (* Exact multiset: everything scheduled fired, each exactly once. *)
  let sorted l = List.sort compare (List.map fst l) in
  check (Alcotest.list int_t) "fired exactly the schedule" (sorted !scheduled)
    (sorted !fired);
  check int_t "nothing left pending" 0 (Hashtbl.length live);
  (* Delivery order: monotone in time... *)
  let in_order = List.rev !fired in
  ignore
    (List.fold_left
       (fun prev (_, t) ->
         check bool_t "fire times monotone" true (t >= prev);
         t)
       0 in_order);
  (* ... and same-time top-level events keep insertion order. *)
  let pos = Hashtbl.create 64 in
  List.iteri (fun i (id, _) -> Hashtbl.replace pos id i) in_order;
  let tops = List.sort compare !top_seq in
  ignore
    (List.fold_left
       (fun prev (t, _, id) ->
         let i = Hashtbl.find pos id in
         (match prev with
         | Some (pt, pi) when pt = t ->
             check bool_t "FIFO among same-time top-level events" true (pi < i)
         | _ -> ());
         Some (t, i))
       None tops)

(* --- Engine model across the ring boundary ---

   The pool model above mostly keeps delays below 50. This one drives a
   seeded mix of events against a reference queue ordered by (time,
   insertion index):

   - delays anywhere in [0, 3 * ring_size], including the ring/heap cutoff
     itself, so events land in both structures and the clock moves far
     enough to wrap the ring several times;
   - equal-time ties: more events scheduled at a time that already has a
     heap event, both while that time is still far (heap/heap) and once
     the clock has come within ring range of it (heap/ring);
   - one far ring event, [ring_size - 1] cycles ahead, with many near events pushed
     and popped below it, so each next-event search starts past the far
     event's slot and has to wrap around the ring to reach it.

   Every firing must be the model's earliest pending event, at its time,
   whether it runs from [step] or from [run]'s in-place slot drain
   (handlers schedule children to exercise the latter). Interleaved
   [try_advance] probes must succeed exactly when the model's earliest
   pending time is past the probed window, and then move the clock by
   exactly the probed amount. *)
let test_engine_ring_boundary_model () =
  let ring = ring_size in
  let rng = Rng.create ~seed:0x41c3L in
  let e = Engine.create () in
  (* Pending model events as (time, id); ids are insertion indices. *)
  let pending = ref [] and next_id = ref 0 and n_fired = ref 0 in
  let far_times = ref [] (* times holding an event scheduled from the heap side *) in
  let earliest () =
    List.fold_left
      (fun best ((t, id) as ev) ->
        match best with
        | Some (bt, bid) when bt < t || (bt = t && bid < id) -> best
        | _ -> Some ev)
      None !pending
  in
  let tag = ref (-1) in
  let add ~time ~children =
    let id = !next_id in
    incr next_id;
    pending := (time, id) :: !pending;
    if time - Engine.now e >= ring then far_times := time :: !far_times;
    Engine.schedule_tag e ~delay:(time - Engine.now e) ~tag:!tag ~a:id ~b:children
  in
  let handler id children =
    (match earliest () with
    | Some (t, eid) ->
        check int_t "fires the model's earliest event" eid id;
        check int_t "fires at its scheduled time" t (Engine.now e)
    | None -> Alcotest.fail "engine fired with the model empty");
    pending := List.filter (fun (_, i) -> i <> id) !pending;
    incr n_fired;
    if children > 0 then
      add ~time:(Engine.now e + Rng.int rng ((3 * ring) + 1)) ~children:(children - 1)
  in
  tag := Engine.register_handler e handler;
  let near () = add ~time:(Engine.now e + Rng.int rng 8) ~children:0 in
  let step () =
    let expect = match !pending with [] -> false | _ -> true in
    check bool_t "step fires iff the model is non-empty" expect (Engine.step e)
  in
  let probe () =
    let now = Engine.now e in
    let cycles =
      match (earliest (), Rng.int rng 3) with
      | Some (t, _), 0 -> t - now (* must decline: the event is at the edge *)
      | Some (t, _), 1 when t > now -> t - now - 1 (* must advance *)
      | _ -> Rng.int rng (3 * ring)
    in
    let expect =
      match earliest () with None -> true | Some (t, _) -> t > now + cycles
    in
    check bool_t "try_advance iff nothing pending in the window" expect
      (Engine.try_advance e ~cycles);
    check int_t "try_advance moves the clock by exactly the window"
      (if expect then now + cycles else now)
      (Engine.now e)
  in
  for _round = 1 to 6 do
    for _op = 1 to 600 do
      let now = Engine.now e in
      match Rng.int rng 10 with
      | 0 | 1 -> add ~time:(now + Rng.int rng ((3 * ring) + 1)) ~children:(Rng.int rng 3)
      | 2 -> add ~time:(now + ring - 2 + Rng.int rng 4) ~children:0 (* the cutoff *)
      | 3 -> (
          far_times := List.filter (fun t -> t >= now) !far_times;
          match !far_times with
          | [] -> near ()
          | ts -> add ~time:(List.nth ts (Rng.int rng (List.length ts))) ~children:0)
      | 4 ->
          add ~time:(now + ring - 1) ~children:0;
          for _ = 1 to 40 do
            for _ = 0 to Rng.int rng 3 do
              near ()
            done;
            if Rng.int rng 4 = 0 then probe ();
            step ()
          done
      | 5 | 6 -> probe ()
      | _ -> step ()
    done;
    Engine.run e;
    check int_t "engine drained" 0 (Engine.live_rows e);
    check int_t "model drained" 0 (List.length !pending)
  done;
  check int_t "every scheduled event fired once" !next_id !n_fired

let suite =
  [
    Alcotest.test_case "rng: deterministic streams" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed matters" `Quick test_rng_seed_matters;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng: float in [0,1)" `Quick test_rng_float_range;
    Alcotest.test_case "rng: bernoulli rate" `Quick test_rng_bool_probability;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "stats: empty" `Quick test_stats_empty;
    Alcotest.test_case "stats: mean/min/max/stddev" `Quick test_stats_basic;
    Alcotest.test_case "stats: percentiles" `Quick test_stats_percentile;
    Alcotest.test_case "stats: percentile interpolation" `Quick test_stats_percentile_interpolates;
    Alcotest.test_case "stats: merge" `Quick test_stats_merge;
    Alcotest.test_case "stats: histogram" `Quick test_histogram;
    Alcotest.test_case "stats: empty-series options" `Quick test_stats_empty_options;
    Alcotest.test_case "stats: nan/inf samples" `Quick test_stats_nan_inf;
    Alcotest.test_case "stats: bounded deterministic reservoir" `Quick
      test_stats_reservoir_bounded_deterministic;
    Alcotest.test_case "stats: merge = single stream" `Quick
      test_stats_merge_matches_single_stream;
    Alcotest.test_case "stats: histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "engine: time ordering" `Quick test_engine_time_ordering;
    Alcotest.test_case "engine: FIFO at ties" `Quick test_engine_fifo_at_same_time;
    Alcotest.test_case "engine: nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine: rejects the past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine: run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine: clock overflow rejected" `Quick
      test_engine_clock_overflow_rejected;
    Alcotest.test_case "engine: try_advance clock boundary" `Quick
      test_engine_try_advance_clock_boundary;
    Alcotest.test_case "engine: seq renumber preserves FIFO" `Slow
      test_engine_seq_renumber_preserves_fifo;
    Alcotest.test_case "engine: randomized pool schedule/fire/recycle model" `Quick
      test_engine_pool_model;
    Alcotest.test_case "engine: ring-boundary model (wrap, heap ties, far ring event)"
      `Quick test_engine_ring_boundary_model;
    Alcotest.test_case "process: delay advances time" `Quick test_process_delay_advances_time;
    Alcotest.test_case "process: interleaving" `Quick test_process_interleaving;
    Alcotest.test_case "process: failures propagate" `Quick test_process_failure_propagates;
    Alcotest.test_case "process: self name" `Quick test_process_self_name;
    Alcotest.test_case "cpu: irq steps detached = serviced (randomized model)" `Quick
      test_irq_step_model;
    Alcotest.test_case "process: stale wake raises" `Quick test_process_stale_wake;
    Alcotest.test_case "process: two engines on two domains" `Quick
      test_process_two_domains;
    Alcotest.test_case "waitq: signal_all" `Quick test_waitq_signal_all;
    Alcotest.test_case "waitq: signal_one FIFO" `Quick test_waitq_signal_one_fifo;
    Alcotest.test_case "waitq: completion" `Quick test_completion;
    Alcotest.test_case "alloc: suspended delay is 4 words" `Quick
      test_alloc_suspended_delay;
    Alcotest.test_case "alloc: idle tick boundary is 0 words" `Quick
      test_alloc_idle_tick_boundary;
    Alcotest.test_case "alloc: tick suspension is 4 words" `Quick
      test_alloc_tick_suspension;
    Alcotest.test_case "alloc: wait + signal_one <= 5 words" `Quick test_alloc_wait_signal;
    Alcotest.test_case "alloc: spawn + run <= 68 words" `Quick test_alloc_spawn;
    Alcotest.test_case "trace: disabled is no-op" `Quick test_trace_disabled_by_default;
    Alcotest.test_case "trace: records in order" `Quick test_trace_records_in_order;
    Alcotest.test_case "trace: typed events" `Quick test_trace_typed_events;
    Alcotest.test_case "trace: ring-buffer cap" `Quick test_trace_ring_buffer_cap;
    Alcotest.test_case "process: chains are delays (randomized model)" `Quick
      test_chain_model;
  ]
