(* tlblint: proven-bounds — every Array.unsafe_get/set below indexes one
   of: the event arena at [base + field] with [base] a stride-aligned
   offset handed out by [alloc] (< [t.cap], and the arena never shrinks),
   including a ring slot's tail row and the rows its circular [f_next]
   links reach; the power-of-two ring (slot = time land ring_mask), as
   chunk [slot lsr chunk_bits] of [ring_size / chunk_size] and index
   [slot land chunk_mask] in it; its occupancy bitmap (word = slot lsr 5,
   or a word index masked by [occ_words - 1]);
   the 32-entry de Bruijn table (index = a 32-bit product lsr 27); the
   heap's parallel key/event arrays within [t.size]; the handler table
   below [t.n_handlers] (schedule-time range check, and the table never
   shrinks); or the free-tag stack below [t.n_free_tags]. *)
(* The hot core of the simulator. Four representation choices keep the
   per-event cost down:

   - The priority key is ONE int: [time lsl seq_bits lor seq]. Heap
     ordering is a single native int comparison instead of a polymorphic
     [compare] call on a (time, seq) pair. [seq] preserves FIFO order for
     same-time events; when the 25-bit sequence field would overflow, the
     pending queue is renumbered in place (order-preserving, rare).
   - Events are not records but rows of a flat int arena, linked by index
     and recycled through an index free list. A first cut pooled ordinary
     records, and benchmarked *slower* than allocating fresh ones: a
     pooled record is promoted to the major heap, so every pointer store
     into it (free-list link, ring link, payload) goes through
     [caml_modify], and at ~9 barriered stores per event the barriers cost
     more than the minor-GC pressure they saved. Int stores into an int
     array have no barrier at all, so the flat arena makes scheduling both
     allocation-free AND barrier-free. An event carries no closure: a
     handler registered once per long-lived object (process, APIC, ...)
     is dispatched by integer tag with two unboxed int arguments carried
     in the row.
   - Near events go to a calendar ring of per-cycle FIFO slots instead of
     the heap, and an occupancy bitmap over the slots finds the next one:
     at most [ring_size / 32] word reads per query, independent of how
     many simulated cycles away it is. [try_advance], [peek_time] and
     [run] ask on every delay, idle tick and drain. A slot holds only its
     tail row; the tail links back to the head, so one array serves both
     ends of every FIFO.
   - [try_advance] lets a running process skip the whole
     suspend/schedule/pop round-trip when no pending event could fire
     inside the window it wants to sleep across: the clock simply moves
     forward. This is exact — any event that could observe or perturb the
     sleeping process would have to be in the queue already, and the
     strict [<] cutoff keeps same-instant FIFO semantics (an event at
     exactly the wake-up time has a smaller seq and must run first).
     Disabled while a chooser is installed, so the interleaving explorer
     sees every decision point. *)

let seq_bits = 25
let seq_limit = 1 lsl seq_bits
let seq_mask = seq_limit - 1
let max_time = max_int lsr seq_bits
let key_time k = k lsr seq_bits

(* Event rows: [stride] ints per event, addressed by base offset. *)
let f_key = 0 (* packed (time, seq) priority *)
let f_tag = 1 (* handler-table index *)
let f_a = 2 (* first unboxed handler argument *)
let f_b = 3 (* second unboxed handler argument *)
let f_next = 4
(* intrusive link, a base offset: the next row of a ring slot's circular
   FIFO (the tail's points at the head), or of the free list ([nil] = end) *)
let stride = 5
let nil = -1

(* Near-future events live in a calendar ring: slot [time land ring_mask]
   holds the FIFO of events at that exact time. An event is ring-eligible
   when [time - now < ring_size] (strictly), which guarantees each slot holds
   at most one distinct timestamp at any moment. Everything else — far
   events, and every event while a chooser is installed — goes through the
   binary heap. Ring append and pop are O(1), versus an O(log n) sift per
   event, and the sift was the single largest line in bench profiles.

   Finding the earliest occupied slot is a search of an occupancy bitmap,
   one bit per slot and 32 slots per int word: at most [occ_words] word
   reads however far ahead the next event sits. A slot-by-slot walk would
   cost one step per cycle of gap, so every fast-path delay would pay for
   simulated time rather than for events.

   Each slot stores only the tail row of its FIFO, and the tail's [f_next]
   points back at the head: append and pop stay O(1) with a single entry
   for both ends. The slots are kept in chunks of [chunk_size] = 256, the
   largest array OCaml allocates in the minor heap. As one array of 2,049
   words the ring was allocated straight into the major heap, and every
   simulated machine builds an engine: on apache-mmap those rings were
   most of the words allocated there, garbage once the cell ended. The
   major GC runs its slices only at minor collections, so that garbage
   piled up between them. In chunks, a short-lived engine's ring dies in
   the minor heap.
   2048 cycles covers the workloads' delays: on pass 0 of seed 11 of the
   repository benchmark, no scheduled event on micro-madvise,
   sysbench-write, apache-mmap or fuzz-diff fell in [2048, 4096), and 3.6%
   did on bigmachine-1024 (they now take the heap). Which structure holds
   an event never changes the (time, seq) order it fires in. *)
let ring_size = 2048
let ring_mask = ring_size - 1
let occ_words = ring_size / 32
let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Index of the lowest set bit of a nonzero 32-bit word, branch-free:
   [x land (-x)] isolates the bit, and multiplying by a de Bruijn sequence
   puts a distinct 5-bit pattern in the top bits of the 32-bit product. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit x =
  Array.unsafe_get debruijn
    ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let no_step () = invalid_arg "Engine: no suspension step"

let no_handler (_ : int) (_ : int) =
  invalid_arg "Engine: tag dispatched after release_handler"

type t = {
  mutable now : int;
  mutable seq : int;
  mutable events_run : int;
  mutable advances : int; (* fast-path clock advances (skipped suspends) *)
  mutable suspensions : int; (* process effect suspensions, see Process *)
  mutable store : int array; (* the event arena, [stride] ints per row *)
  mutable cap : int; (* ints in [store] handed out so far (arena bump pointer) *)
  mutable free : int; (* head of the row free list, [nil] = empty *)
  mutable hkey : int array; (* binary min-heap keys, far/chooser events *)
  mutable hev : int array; (* heap rows (base offsets), parallel to [hkey] *)
  mutable size : int; (* heap population *)
  ring : int array array; (* slot tail rows, [nil] = empty, in chunks *)
  occ : int array; (* bit [slot land 31] of word [slot lsr 5]: slot non-empty *)
  mutable ring_count : int; (* ring population *)
  mutable ring_min : int;
      (* lower bound on the earliest ring event's time: no ring event lives
         in [now, ring_min). Pop scans start here instead of [now]. *)
  mutable handlers : (int -> int -> unit) array; (* tag dispatch table *)
  mutable n_handlers : int;
  mutable free_tags : int array; (* stack of released handler slots *)
  mutable n_free_tags : int;
  mutable cur_name : string; (* running cooperative process, see Process *)
  mutable cur_tag : int; (* its handler tag, [nil] outside any process *)
  mutable arg_cycles : int; (* argument of the next Process suspension *)
  mutable arg_step : unit -> int; (* a tick suspension's step function *)
  mutable chooser : (int -> int) option;
  mutable horizon : int;
}

let create () =
  {
    now = 0;
    seq = 0;
    events_run = 0;
    advances = 0;
    suspensions = 0;
    store = [||];
    cap = 0;
    free = nil;
    hkey = [||];
    hev = [||];
    size = 0;
    ring = Array.init (ring_size / chunk_size) (fun _ -> Array.make chunk_size nil);
    occ = Array.make occ_words 0;
    ring_count = 0;
    ring_min = 0;
    handlers = [||];
    n_handlers = 0;
    free_tags = [||];
    n_free_tags = 0;
    cur_name = "main";
    cur_tag = nil;
    arg_cycles = 0;
    arg_step = no_step;
    chooser = None;
    horizon = 0;
  }

let now t = t.now
let events_run t = t.events_run
let advances t = t.advances
let suspensions t = t.suspensions
let note_suspension t = t.suspensions <- t.suspensions + 1

(* Engine operations are a per-engine quantity: every engine belongs to
   exactly one simulation run, so a harness that wants "ops spent in this
   run" reads the run's own engine(s) and aggregation across runs (and
   domains) is plain addition at reduce time. There is deliberately no
   process-wide counter: a global meter both serializes perf attribution
   (deltas only mean something when one experiment runs at a time) and
   reports 0 for experiments that reuse memoized results. *)
let ops t = t.events_run + t.advances
let current_name t = t.cur_name
let current_tag t = t.cur_tag

let set_current t ~name ~tag =
  t.cur_name <- name;
  t.cur_tag <- tag

let arg_cycles t = t.arg_cycles
let set_arg_cycles t cycles = t.arg_cycles <- cycles
let arg_step t = t.arg_step
let set_arg_step t step = t.arg_step <- step

(* ----- event arena ----- *)

(* Reuse a free-listed row or bump the arena pointer. The arena grows to
   the high-water mark of simultaneously pending events and stays there:
   after warm-up, scheduling neither allocates nor runs a write barrier
   (rows are ints). *)
let alloc t ~key ~tag ~a ~b =
  let base =
    let f = t.free in
    if f >= 0 then begin
      t.free <- Array.unsafe_get t.store (f + f_next);
      f
    end
    else begin
      if t.cap = Array.length t.store then begin
        let bigger = Array.make (Int.max (64 * stride) (2 * t.cap)) 0 in
        Array.blit t.store 0 bigger 0 t.cap;
        t.store <- bigger
      end;
      let base = t.cap in
      t.cap <- t.cap + stride;
      base
    end
  in
  let s = t.store in
  Array.unsafe_set s (base + f_key) key;
  Array.unsafe_set s (base + f_tag) tag;
  Array.unsafe_set s (base + f_a) a;
  Array.unsafe_set s (base + f_b) b;
  Array.unsafe_set s (base + f_next) nil;
  base

(* Return a row to the free list. *)
let release t base =
  Array.unsafe_set t.store (base + f_next) t.free;
  t.free <- base

let live_rows t =
  let free = ref 0 and r = ref t.free in
  while !r <> nil do
    incr free;
    r := t.store.(!r + f_next)
  done;
  (t.cap / stride) - !free

(* ----- tag dispatch table ----- *)

let register_handler t f =
  let tag =
    if t.n_free_tags > 0 then begin
      t.n_free_tags <- t.n_free_tags - 1;
      Array.unsafe_get t.free_tags t.n_free_tags
    end
    else begin
      let n = t.n_handlers in
      if n = Array.length t.handlers then begin
        let bigger = Array.make (Int.max 8 (2 * n)) no_handler in
        Array.blit t.handlers 0 bigger 0 n;
        t.handlers <- bigger
      end;
      t.n_handlers <- n + 1;
      n
    end
  in
  t.handlers.(tag) <- f;
  tag

(* The caller must not release a tag that still has events in flight:
   the slot may be reassigned by the next [register_handler] and a stale
   event would dispatch to the wrong handler. (The in-tree users release
   only from the owning process's own execution — a process cannot be
   sleeping while it runs — so no event can be pending on the tag.) *)
let release_handler t tag =
  if tag < 0 || tag >= t.n_handlers then
    invalid_arg "Engine.release_handler: unknown tag";
  t.handlers.(tag) <- no_handler;
  if t.n_free_tags = Array.length t.free_tags then begin
    let bigger = Array.make (Int.max 8 (2 * t.n_free_tags)) 0 in
    Array.blit t.free_tags 0 bigger 0 t.n_free_tags;
    t.free_tags <- bigger
  end;
  Array.unsafe_set t.free_tags t.n_free_tags tag;
  t.n_free_tags <- t.n_free_tags + 1

(* ----- calendar ring primitives ----- *)

(* Link [ev] in after the slot's tail (before its head) and make it the
   tail; alone in its slot, it is its own head. *)
let ring_append t ~time ev =
  let slot = time land ring_mask in
  let s = t.store in
  let chunk = Array.unsafe_get t.ring (slot lsr chunk_bits) in
  let tail = Array.unsafe_get chunk (slot land chunk_mask) in
  if tail = nil then begin
    Array.unsafe_set s (ev + f_next) ev;
    let w = slot lsr 5 in
    Array.unsafe_set t.occ w (Array.unsafe_get t.occ w lor (1 lsl (slot land 31)))
  end
  else begin
    Array.unsafe_set s (ev + f_next) (Array.unsafe_get s (tail + f_next));
    Array.unsafe_set s (tail + f_next) ev
  end;
  Array.unsafe_set chunk (slot land chunk_mask) ev;
  t.ring_count <- t.ring_count + 1;
  if time < t.ring_min then t.ring_min <- time

(* Earliest ring event's time; requires [ring_count > 0]. Every ring
   event's time is in [pos, pos + ring_size), where [pos] is [ring_min]
   clamped to [now] (none lies below [ring_min], none at or past [now +
   ring_size]), so the earliest one sits in the first occupied slot at or
   after [pos]'s slot, cyclically. The search reads [pos]'s word
   with the bits below [pos] masked off, then whole words onward, wrapping
   once: back at the start word, only the masked-off bits can be set.
   Leaves [ring_min] on the found time. *)
let ring_earliest t =
  let pos = if t.ring_min > t.now then t.ring_min else t.now in
  let s0 = pos land ring_mask in
  let w0 = s0 lsr 5 in
  let occ = t.occ in
  let bits = Array.unsafe_get occ w0 land (-1 lsl (s0 land 31)) in
  let slot =
    if bits <> 0 then (w0 lsl 5) lor lowest_bit bits
    else begin
      let w = ref ((w0 + 1) land (occ_words - 1)) in
      while Array.unsafe_get occ !w = 0 do
        w := (!w + 1) land (occ_words - 1)
      done;
      (!w lsl 5) lor lowest_bit (Array.unsafe_get occ !w)
    end
  in
  let time = pos + ((slot - s0) land ring_mask) in
  t.ring_min <- time;
  time

(* Pop the FIFO head of the slot holding time [pos]: the row after the
   tail. *)
let ring_pop t pos =
  let slot = pos land ring_mask in
  let s = t.store in
  let chunk = Array.unsafe_get t.ring (slot lsr chunk_bits) in
  let tail = Array.unsafe_get chunk (slot land chunk_mask) in
  let head = Array.unsafe_get s (tail + f_next) in
  if head = tail then begin
    Array.unsafe_set chunk (slot land chunk_mask) nil;
    let w = slot lsr 5 in
    Array.unsafe_set t.occ w
      (Array.unsafe_get t.occ w land lnot (1 lsl (slot land 31)))
  end
  else Array.unsafe_set s (tail + f_next) (Array.unsafe_get s (head + f_next));
  t.ring_count <- t.ring_count - 1;
  head

(* Move every ring event into the heap (any insertion order: the heap
   orders by full key). Used when a chooser is installed and by seq
   renumbering — both want the single-structure view. *)
let drain_ring_to_push t push =
  if t.ring_count > 0 then begin
    for s = 0 to ring_size - 1 do
      let chunk = Array.unsafe_get t.ring (s lsr chunk_bits) in
      let tail = Array.unsafe_get chunk (s land chunk_mask) in
      if tail >= 0 then begin
        (* Walk head .. tail once round the circle. *)
        let ev = ref (Array.unsafe_get t.store (tail + f_next)) in
        while !ev <> tail do
          let e = !ev in
          ev := Array.unsafe_get t.store (e + f_next);
          push e
        done;
        push tail;
        Array.unsafe_set chunk (s land chunk_mask) nil
      end
    done;
    Array.fill t.occ 0 occ_words 0;
    t.ring_count <- 0
  end

(* ----- heap primitives (parallel key/row arrays, int comparisons) ----- *)

let rec sift_up (hkey : int array) (hev : int array) i (key : int) (ev : int) =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let pk = Array.unsafe_get hkey parent in
    if key < pk then begin
      Array.unsafe_set hkey i pk;
      Array.unsafe_set hev i (Array.unsafe_get hev parent);
      sift_up hkey hev parent key ev
    end
    else begin
      Array.unsafe_set hkey i key;
      Array.unsafe_set hev i ev
    end
  end
  else begin
    Array.unsafe_set hkey i key;
    Array.unsafe_set hev i ev
  end

let rec sift_down (hkey : int array) (hev : int array) size i (key : int)
    (ev : int) =
  let left = (2 * i) + 1 in
  if left >= size then begin
    Array.unsafe_set hkey i key;
    Array.unsafe_set hev i ev
  end
  else begin
    let right = left + 1 in
    let child =
      if right < size && Array.unsafe_get hkey right < Array.unsafe_get hkey left
      then right
      else left
    in
    let ck = Array.unsafe_get hkey child in
    if ck < key then begin
      Array.unsafe_set hkey i ck;
      Array.unsafe_set hev i (Array.unsafe_get hev child);
      sift_down hkey hev size child key ev
    end
    else begin
      Array.unsafe_set hkey i key;
      Array.unsafe_set hev i ev
    end
  end

let push t ev =
  let cap = Array.length t.hkey in
  if t.size = cap then begin
    let n = Int.max 64 (2 * cap) in
    let hkey = Array.make n 0 and hev = Array.make n nil in
    Array.blit t.hkey 0 hkey 0 t.size;
    Array.blit t.hev 0 hev 0 t.size;
    t.hkey <- hkey;
    t.hev <- hev
  end;
  t.size <- t.size + 1;
  sift_up t.hkey t.hev (t.size - 1) (Array.unsafe_get t.store (ev + f_key)) ev

(* Heap-only pop; requires [t.size > 0]. *)
let heap_pop t =
  let top = Array.unsafe_get t.hev 0 in
  t.size <- t.size - 1;
  if t.size > 0 then
    sift_down t.hkey t.hev t.size 0
      (Array.unsafe_get t.hkey t.size)
      (Array.unsafe_get t.hev t.size);
  top

(* Merged pop over heap + ring in (time, seq) order; [nil] when empty. On
   an equal-time tie the heap event goes first: it was necessarily
   scheduled at a strictly earlier instant (ring-eligibility is [time -
   now < ring_size], so for one target time the far/heap push happened at
   a smaller [now] than any ring push), hence it carries the smaller seq. *)
let pop t =
  if t.ring_count = 0 then begin
    if t.size = 0 then nil else heap_pop t
  end
  else if t.size = 0 then ring_pop t (ring_earliest t)
  else begin
    let rt = ring_earliest t in
    if key_time (Array.unsafe_get t.hkey 0) <= rt then heap_pop t
    else ring_pop t rt
  end

(* Earliest pending time across heap and ring; [max_int] when empty. *)
let peek_time t =
  let h = if t.size = 0 then max_int else key_time (Array.unsafe_get t.hkey 0) in
  if t.ring_count = 0 then h
  else begin
    let rt = ring_earliest t in
    if h < rt then h else rt
  end

let set_chooser t ?(horizon = 0) choose =
  if horizon < 0 then invalid_arg "Engine.set_chooser: negative horizon";
  t.chooser <- Some choose;
  t.horizon <- horizon;
  (* Chooser mode is pure-heap ([pop_chosen] peeks the heap top directly),
     so migrate anything already sitting in the ring. *)
  drain_ring_to_push t (push t)

let clear_chooser t =
  t.chooser <- None;
  t.horizon <- 0

(* ----- sequence renumbering -----

   [seq] identifies insertion order among same-time events. Once the field
   saturates, renumber every pending event (ring included) 0..n-1 in key
   order: relative order (hence behaviour) is unchanged, and a sorted array
   is already a valid min-heap. The ring is left empty — events re-enter it
   as they are scheduled. Rare (every 33M schedules), so the scratch pair
   array is allocated freely. *)
let renumber t =
  drain_ring_to_push t (push t);
  (* The renumbered seqs are 0..size-1 and the next fresh seq is [size];
     with [size >= seq_mask] those would overflow into the time bits of the
     packed key, silently corrupting heap order. Unreachable below ~33M
     simultaneously-pending events, but fail loudly rather than corrupt. *)
  if t.size >= seq_mask then
    invalid_arg
      (Printf.sprintf
         "Engine: %d pending events exceed the %d-bit sequence field" t.size
         seq_bits);
  let live = Array.init t.size (fun i -> (t.hkey.(i), t.hev.(i))) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) live;
  Array.iteri
    (fun i (key, ev) ->
      let key = (key_time key lsl seq_bits) lor i in
      t.store.(ev + f_key) <- key;
      t.hkey.(i) <- key;
      t.hev.(i) <- ev)
    live;
  t.seq <- t.size

(* ----- scheduling ----- *)

let fresh_key t ~time =
  if time > max_time then
    invalid_arg (Printf.sprintf "Engine.schedule_tag: time %d overflows the clock" time);
  if t.seq >= seq_mask then renumber t;
  let key = (time lsl seq_bits) lor t.seq in
  t.seq <- t.seq + 1;
  key

let enqueue t ~time ev =
  match t.chooser with
  | None when time - t.now < ring_size -> ring_append t ~time ev
  | _ -> push t ev

let schedule_tag t ~delay ~tag ~a ~b =
  if delay < 0 then invalid_arg "Engine.schedule_tag: negative delay";
  if tag < 0 || tag >= t.n_handlers then
    invalid_arg "Engine.schedule_tag: unregistered tag";
  let time = t.now + delay in
  let key = fresh_key t ~time in
  enqueue t ~time (alloc t ~key ~tag ~a ~b)

(* Fast path for Process.delay: advance the clock without a suspend when no
   pending event falls inside the window (strictly — an event at exactly
   [now + cycles] predates the would-be resume in seq order). *)
let try_advance t ~cycles =
  match t.chooser with
  | Some _ -> false
  | None ->
      if cycles < 0 then invalid_arg "Engine.try_advance: negative cycles";
      (* [cycles <= max_time - t.now] (overflow-safe: both sides are
         non-negative ints) keeps [now] inside the packed key's time field.
         Past that, decline the fast path so the slow path's [schedule_tag]
         reports the clock overflow instead of [now] silently wrapping into
         the seq bits. *)
      if cycles <= max_time - t.now && peek_time t > t.now + cycles then begin
        t.now <- t.now + cycles;
        t.advances <- t.advances + 1;
        true
      end
      else false

(* Run one popped event and recycle its row. The release happens before
   the callback runs: the row is already unlinked from every queue, so the
   callback is free to schedule (and immediately reuse the row). *)
let dispatch t base =
  let s = t.store in
  let tag = Array.unsafe_get s (base + f_tag) in
  let a = Array.unsafe_get s (base + f_a) in
  let b = Array.unsafe_get s (base + f_b) in
  release t base;
  t.events_run <- t.events_run + 1;
  (Array.unsafe_get t.handlers tag) a b

(* With a chooser installed, every set of events falling inside the
   concurrency horizon is a scheduling decision point: the chooser picks
   which fires next. Events run in seq order within the chosen one's
   timestamp; the clock is clamped monotone (an event overtaken by a later
   one from the window runs "late" at the current time). Without a chooser
   this is the plain deterministic (time, seq) order. *)
let pop_chosen t choose =
  let first = pop t in
  if first = nil then nil
  else begin
    let cutoff = key_time t.store.(first + f_key) + t.horizon in
    let buf = ref [| first |] in
    let n = ref 1 in
    let continue = ref true in
    while !continue do
      if t.size > 0 && key_time t.hkey.(0) <= cutoff then begin
        let ev = pop t in
        if !n = Array.length !buf then begin
          let bigger = Array.make (2 * !n) nil in
          Array.blit !buf 0 bigger 0 !n;
          buf := bigger
        end;
        !buf.(!n) <- ev;
        incr n
      end
      else continue := false
    done;
    if !n = 1 then first
    else begin
      let i = choose !n in
      let i = if i < 0 || i >= !n then 0 else i in
      for j = 0 to !n - 1 do
        if j <> i then push t !buf.(j)
      done;
      !buf.(i)
    end
  end

let step t =
  let ev = match t.chooser with None -> pop t | Some choose -> pop_chosen t choose in
  if ev = nil then false
  else begin
    let time = key_time (Array.unsafe_get t.store (ev + f_key)) in
    if time > t.now then t.now <- time;
    dispatch t ev;
    true
  end

(* The chooser-free branch drains the queues without going through
   [step]/[pop]'s per-event branching. When the front of the queue is a
   ring slot and the heap cannot interleave (its top is strictly later),
   the whole slot is drained in place — the common "many events this
   cycle" case pays the ring/heap comparison, the [ring_earliest] search,
   and the outer dispatch branch once per cycle instead of once per
   event. This is order-exact: with no chooser, a schedule issued during
   the drain targets either this same instant — it lands at the tail of
   this very slot with a strictly larger seq and is drained in turn — or
   a strictly later time; and the heap only ever gains later times too (a
   near-future schedule goes to the ring, a far one is ≥ ring_size cycles
   away). The two events that can move ring events into the heap
   mid-drain, [set_chooser] and [renumber], both empty the slot through
   [drain_ring_to_push], which terminates the inner loop with every count
   intact. The [t.now = rt] guard covers the one remaining wrinkle: while
   the slot is non-empty [try_advance] cannot move the clock ([peek_time]
   = rt = now), but once a callback has emptied the slot it may advance
   the clock and then schedule an event exactly [ring_size] cycles past
   [rt] — same slot, later time — which must go back through the outer
   loop's time bookkeeping. The chooser is still consulted per event so
   installing one mid-run behaves exactly as it did through [step]. *)
let run t =
  let continue = ref true in
  while !continue do
    match t.chooser with
    | Some _ -> continue := step t
    | None ->
        if t.ring_count = 0 && t.size = 0 then continue := false
        else begin
          let rt = if t.ring_count = 0 then max_int else ring_earliest t in
          if t.size > 0 && key_time (Array.unsafe_get t.hkey 0) <= rt then begin
            let ev = heap_pop t in
            let time = key_time (Array.unsafe_get t.store (ev + f_key)) in
            if time > t.now then t.now <- time;
            dispatch t ev
          end
          else begin
            if rt > t.now then t.now <- rt;
            let slot = rt land ring_mask in
            let chunk = Array.unsafe_get t.ring (slot lsr chunk_bits) in
            while
              Array.unsafe_get chunk (slot land chunk_mask) >= 0
              && t.now = rt
              && match t.chooser with None -> true | Some _ -> false
            do
              dispatch t (ring_pop t rt)
            done
          end
        end
  done

let run_until t ~time =
  if time > max_time then
    invalid_arg (Printf.sprintf "Engine.run_until: time %d overflows the clock" time);
  let continue = ref true in
  while !continue do
    if peek_time t > time then continue := false else ignore (step t)
  done;
  if t.now < time && t.ring_count = 0 && t.size = 0 then t.now <- time
