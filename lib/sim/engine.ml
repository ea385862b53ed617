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
   shrinks); the free-tag stack below [t.n_free_tags]; a spin's fields
   in [sp] at [id * sp_stride + field] and its predicates at [id], for an
   id [spin_alloc] handed out (below [t.sp_ids], and those arrays never
   shrink); the spin heap's parallel key/id arrays within [t.n_spins],
   which is at most [t.sp_ids]; or a window table's rows below [w.n]
   ([collect] grows the table before it appends a row). *)
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
     the heap. [ring_min] is kept equal to the earliest ring time, so the
     query [try_advance], [peek_time] and [run] make on every delay, idle
     tick and drain is one load. The search for the next one moves to the
     pop that empties a slot: an occupancy bitmap over the slots finds it
     in at most [ring_size / 32] word reads, independent of how many
     simulated cycles away it is. A slot holds only its tail row; the
     tail links back to the head, so one array serves both ends of every
     FIFO.
   - [try_advance] lets a running process skip the whole
     suspend/schedule/pop round-trip when no pending event could fire
     inside the window it wants to sleep across: the clock simply moves
     forward. This is exact — any event that could observe or perturb the
     sleeping process would have to be in the queue already, and the
     strict [<] cutoff keeps same-instant FIFO semantics (an event at
     exactly the wake-up time has a smaller seq and must run first).
     Disabled while a chooser is installed, so the interleaving explorer
     sees every decision point.
   - An idle spin (a process waiting out a fixed slice schedule until a
     predicate holds) is not a row but an entry of a small spin heap
     beside the ring, keyed like an event by the [(time, seq)] its next
     boundary would have. The run loop takes it in key order; a boundary
     that does not wake costs one predicate call, one seq and an in-place
     re-key, with no row, no dispatch and no process resume. And
     [try_advance] steps through a window that holds only non-waking spin
     boundaries instead of declining it, so the process asking does not
     suspend either. The predicates are pure and read no clock, so they
     hold the same value across such a window: one call per spin decides
     whether any of its boundaries there wakes it. Counts and order are
     exactly those of a [Process.delay] per slice: a boundary counts as an
     advance exactly when that delay would have taken the fast path, and a
     window stepped through counts as the event its resume would have
     been. When every slice of the window's spins is one quantum, the
     window is not stepped at all: each spin's boundaries, runs, final
     key and slice state are counted in closed form ([walk_closed]), and
     a lone spin's run of boundaries likewise ([walk_top]). *)

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

   [ring_min] is the earliest ring event's time, kept exact by appends
   (one compare) and by the pops that empty a slot, which search an
   occupancy bitmap for the next: one bit per slot and 32 slots per int
   word, at most [occ_words] word reads however far ahead the next event
   sits. A slot-by-slot walk would cost one step per cycle of gap, so
   every fast-path delay would pay for simulated time rather than for
   events. Queries outnumber slot-emptying pops several times over on
   every workload, so the search is paid where it is rarer.

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

let no_handler (_ : int) (_ : int) =
  invalid_arg "Engine: tag dispatched after release_handler"

type t = {
  mutable now : int;
  mutable seq : int;
  mutable events_run : int;
  mutable advances : int; (* fast-path clock advances (skipped suspends) *)
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
      (* the earliest ring event's time, [max_int] when the ring is empty *)
  mutable handlers : (int -> int -> unit) array; (* tag dispatch table *)
  mutable n_handlers : int;
  mutable free_tags : int array; (* stack of released handler slots *)
  mutable n_free_tags : int;
  mutable cur_name : string; (* running cooperative process, see Process *)
  mutable cur_tag : int; (* its handler tag, [nil] outside any process *)
  mutable arg_cycles : int; (* argument of the next Process suspension *)
  mutable chooser : (int -> int) option;
  mutable horizon : int;
  (* Idle spins: a min-heap of [(time, seq)] keys and spin ids, and per id
     [sp_stride] ints in [sp] plus the two predicates. *)
  mutable skey : int array;
  mutable sid : int array;
  mutable n_spins : int;
  mutable sp : int array;
  mutable sp_wq : (unit -> bool) array; (* wakes at any boundary *)
  mutable sp_wc : (unit -> bool) array; (* wakes at a chunk end *)
  mutable sp_ids : int; (* ids handed out so far *)
  mutable sp_free : int; (* free id list through [s_tag], [nil] = empty *)
  mutable staged : int; (* spin id the next suspension queues, [nil] = none *)
  mutable spin_result : int; (* what the last spin woke on, see [spin] *)
  mutable spin_spun : int; (* the slice cycles the last spin waited out *)
  mutable barrier : int;
      (* while [try_advance] steps through spins: the key its caller's
         resume would have had; [max_int] otherwise *)
  mutable until : int;
      (* the latest time [try_advance] and a spin's run of boundaries may
         move the clock to: [run_until]'s time while it runs, [max_time]
         otherwise *)
  mutable spin_tag : int; (* handler of spin rows under a chooser, [nil] until one *)
}

(* Suspensions are counted per domain, not per engine: a harness reads
   the count around a run it executes on one domain, as it reads
   [Gc.minor_words], without a handle on the run's engines. *)
let suspensions_key = Domain.DLS.new_key (fun () -> ref 0)
let suspensions () = !(Domain.DLS.get suspensions_key)
let note_suspension () = incr (Domain.DLS.get suspensions_key)

(* The chooser [create] installs, per domain; a domain spawned later
   starts with its parent's. *)
let default_chooser_key = Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> None)
let reference_chooser (_ : int) = 0
let use_reference_engine () = Domain.DLS.set default_chooser_key (Some reference_chooser)

(* Creating an engine forces its domain's suspension counter, so that the
   first suspension of a run allocates nothing. *)
let create () =
  ignore (suspensions ());
  {
    now = 0;
    seq = 0;
    events_run = 0;
    advances = 0;
    store = [||];
    cap = 0;
    free = nil;
    hkey = [||];
    hev = [||];
    size = 0;
    ring = Array.init (ring_size / chunk_size) (fun _ -> Array.make chunk_size nil);
    occ = Array.make occ_words 0;
    ring_count = 0;
    ring_min = max_int;
    handlers = [||];
    n_handlers = 0;
    free_tags = [||];
    n_free_tags = 0;
    cur_name = "main";
    cur_tag = nil;
    arg_cycles = 0;
    chooser = Domain.DLS.get default_chooser_key;
    horizon = 0;
    skey = [||];
    sid = [||];
    n_spins = 0;
    sp = [||];
    sp_wq = [||];
    sp_wc = [||];
    sp_ids = 0;
    sp_free = nil;
    staged = nil;
    spin_result = 0;
    spin_spun = 0;
    barrier = max_int;
    until = max_time;
    spin_tag = nil;
  }

let now t = t.now
let events_run t = t.events_run
let advances t = t.advances

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

let set_arg_cycles t cycles =
  t.arg_cycles <- cycles;
  t.staged <- nil


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
  (t.cap / stride) - !free + t.n_spins

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

(* The earliest ring event's time; requires the ring non-empty and every
   ring event's time in [pos, pos + ring_size), so that the earliest one
   sits in the first occupied slot at or after [pos]'s slot, cyclically.
   The search reads [pos]'s word with the bits below [pos] masked off,
   then whole words onward, wrapping once: back at the start word, only
   the masked-off bits can be set. *)
let ring_search t pos =
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
  pos + ((slot - s0) land ring_mask)

(* Pop the FIFO head of the slot holding time [pos], the earliest ring
   time: the row after the tail. When that empties the slot, the next
   earliest ring time lies in [(pos, now + ring_size)], so the bitmap
   search from [pos + 1] finds it. *)
let ring_pop t pos =
  let slot = pos land ring_mask in
  let s = t.store in
  let chunk = Array.unsafe_get t.ring (slot lsr chunk_bits) in
  let tail = Array.unsafe_get chunk (slot land chunk_mask) in
  let head = Array.unsafe_get s (tail + f_next) in
  t.ring_count <- t.ring_count - 1;
  if head = tail then begin
    Array.unsafe_set chunk (slot land chunk_mask) nil;
    let w = slot lsr 5 in
    Array.unsafe_set t.occ w
      (Array.unsafe_get t.occ w land lnot (1 lsl (slot land 31)));
    t.ring_min <- (if t.ring_count = 0 then max_int else ring_search t (pos + 1))
  end
  else Array.unsafe_set s (tail + f_next) (Array.unsafe_get s (head + f_next));
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
    t.ring_count <- 0;
    t.ring_min <- max_int
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
  else if t.size = 0 then ring_pop t t.ring_min
  else begin
    let rt = t.ring_min in
    if key_time (Array.unsafe_get t.hkey 0) <= rt then heap_pop t
    else ring_pop t rt
  end

(* Earliest pending event time across heap and ring, spins aside;
   [max_int] when empty. *)
let peek_events t =
  let h = if t.size = 0 then max_int else key_time (Array.unsafe_get t.hkey 0) in
  if h < t.ring_min then h else t.ring_min

(* Key of the FIFO head of ring slot [rt], the earliest ring time. *)
let ring_head_key t rt =
  let slot = rt land ring_mask in
  let chunk = Array.unsafe_get t.ring (slot lsr chunk_bits) in
  let tail = Array.unsafe_get chunk (slot land chunk_mask) in
  Array.unsafe_get t.store (Array.unsafe_get t.store (tail + f_next) + f_key)

(* Key of the earliest pending event, spins aside; [max_int] when none. *)
let events_front_key t =
  let h = if t.size = 0 then max_int else Array.unsafe_get t.hkey 0 in
  if t.ring_count = 0 || key_time h <= t.ring_min then h
  else ring_head_key t t.ring_min

(* ----- idle spins: storage and heap ----- *)

(* Per spin id: the process tag its wake resumes, the slice length, the
   chunk length, the cycles of the chunk left after the slice in flight,
   the cycles of all slices so far, the one in flight included, and
   whether every slice is one quantum (see [fixed_step]): 1 yes, 0 no, -1
   not yet decided. *)
let s_tag = 0
let s_quantum = 1
let s_chunk = 2
let s_left = 3
let s_spun = 4
let s_fixed = 5
let sp_stride = 6
let never () = false

let spin_alloc t ~quantum ~chunk ~left ~spun wq wc =
  let id =
    if t.sp_free >= 0 then begin
      let id = t.sp_free in
      t.sp_free <- Array.unsafe_get t.sp ((id * sp_stride) + s_tag);
      id
    end
    else begin
      let id = t.sp_ids in
      if id = Array.length t.sp_wq then begin
        let n = Int.max 4 (2 * id) in
        let grow a fill =
          let a' = Array.make n fill in
          Array.blit a 0 a' 0 id;
          a'
        in
        let sp = Array.make (n * sp_stride) 0 in
        Array.blit t.sp 0 sp 0 (id * sp_stride);
        t.sp <- sp;
        t.sp_wq <- grow t.sp_wq never;
        t.sp_wc <- grow t.sp_wc never;
        t.skey <- grow t.skey 0;
        t.sid <- grow t.sid 0
      end;
      t.sp_ids <- id + 1;
      id
    end
  in
  let b = id * sp_stride in
  Array.unsafe_set t.sp (b + s_quantum) quantum;
  Array.unsafe_set t.sp (b + s_chunk) chunk;
  Array.unsafe_set t.sp (b + s_left) left;
  Array.unsafe_set t.sp (b + s_spun) spun;
  Array.unsafe_set t.sp (b + s_fixed) (-1);
  Array.unsafe_set t.sp_wq id wq;
  Array.unsafe_set t.sp_wc id wc;
  id

let spin_free t id =
  Array.unsafe_set t.sp ((id * sp_stride) + s_tag) t.sp_free;
  t.sp_free <- id

(* The heap holds at most one entry per id, so it fits the id arrays. *)
let spin_push t key id =
  t.n_spins <- t.n_spins + 1;
  sift_up t.skey t.sid (t.n_spins - 1) key id

let spin_pop_top t =
  t.n_spins <- t.n_spins - 1;
  let n = t.n_spins in
  if n > 0 then
    sift_down t.skey t.sid n 0 (Array.unsafe_get t.skey n) (Array.unsafe_get t.sid n)

(* Give the top spin a later key, in place. *)
let rekey_top t key = sift_down t.skey t.sid t.n_spins 0 key (Array.unsafe_get t.sid 0)

(* Earliest boundary time among the spins below the top; [max_int] when
   none. *)
let spins_after_top t =
  let n = t.n_spins in
  if n < 2 then max_int
  else begin
    let k1 = Array.unsafe_get t.skey 1 in
    let k = if n > 2 then Int.min k1 (Array.unsafe_get t.skey 2) else k1 in
    key_time k
  end

let clear_chooser t =
  t.chooser <- None;
  t.horizon <- 0

(* ----- sequence renumbering -----

   [seq] identifies insertion order among same-time events. Once the field
   saturates, renumber every pending key (ring, heap, spins, and the
   barrier of a [try_advance] stepping through spins) 0..n-1 in key order:
   relative order (hence behaviour) is unchanged, and a sorted array is
   already a valid min-heap; spin keys are rewritten in place, which a
   monotone renumbering keeps a valid heap. The ring is left empty —
   events re-enter it as they are scheduled. Rare (every 33M schedules),
   so the scratch array is allocated freely. *)
let renumber t =
  drain_ring_to_push t (push t);
  let with_barrier = if t.barrier < max_int then 1 else 0 in
  let n = t.size + t.n_spins + with_barrier in
  (* The renumbered seqs are 0..n-1 and the next fresh seq is [n]; with
     [n >= seq_mask] those would overflow into the time bits of the packed
     key, silently corrupting heap order. Unreachable below ~33M
     simultaneously-pending events, but fail loudly rather than corrupt. *)
  if n >= seq_mask then
    invalid_arg
      (Printf.sprintf "Engine: %d pending events exceed the %d-bit sequence field" n
         seq_bits);
  (* (key, place): place >= 0 is an event row, -1 - i spin heap slot i,
     [min_int] the barrier. *)
  let live =
    Array.init n (fun i ->
        if i < t.size then (t.hkey.(i), t.hev.(i))
        else if i < t.size + t.n_spins then (t.skey.(i - t.size), -1 - (i - t.size))
        else (t.barrier, min_int))
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) live;
  let events = ref 0 in
  Array.iteri
    (fun i (key, place) ->
      let key = (key_time key lsl seq_bits) lor i in
      if place = min_int then t.barrier <- key
      else if place < 0 then t.skey.(-1 - place) <- key
      else begin
        t.store.(place + f_key) <- key;
        t.hkey.(!events) <- key;
        t.hev.(!events) <- place;
        incr events
      end)
    live;
  t.seq <- n

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

(* ----- idle spins: boundaries ----- *)

(* Run spin [id]'s boundaries from the one due at [time], whose count is
   already taken. Each consults the predicates; while the next boundary
   would take [try_advance]'s fast path (nothing else pending at or before
   it: no event, and no spin boundary before [rest]), it follows at once,
   counted as an advance. Returns the time of the boundary to queue, or
   [-1] when the spin wakes, with the wake's answer in [spin_result]. *)
let rec spin_boundaries t id time rest =
  t.now <- time;
  let b = id * sp_stride in
  let left = Array.unsafe_get t.sp (b + s_left) in
  if (Array.unsafe_get t.sp_wq id) () then begin
    t.spin_result <- left;
    t.spin_spun <- Array.unsafe_get t.sp (b + s_spun);
    -1
  end
  else if left = 0 && (Array.unsafe_get t.sp_wc id) () then begin
    t.spin_result <- -1;
    t.spin_spun <- Array.unsafe_get t.sp (b + s_spun);
    -1
  end
  else begin
    let left = if left = 0 then Array.unsafe_get t.sp (b + s_chunk) else left in
    let d = Int.min (Array.unsafe_get t.sp (b + s_quantum)) left in
    Array.unsafe_set t.sp (b + s_left) (left - d);
    Array.unsafe_set t.sp (b + s_spun) (Array.unsafe_get t.sp (b + s_spun) + d);
    let tn = time + d in
    if
      tn < rest && tn <= t.until
      && (match t.chooser with None -> true | Some _ -> false)
      && peek_events t > tn
    then begin
      t.advances <- t.advances + 1;
      spin_boundaries t id tn rest
    end
    else tn
  end

(* Resume the woken spin's process: its tag's handler, called with
   [(0, 0)] as for the end of a sleep. *)
let spin_wake t id =
  let tag = Array.unsafe_get t.sp ((id * sp_stride) + s_tag) in
  spin_free t id;
  (Array.unsafe_get t.handlers tag) 0 0

(* A spin's next boundary, as a spin heap entry, or under a chooser as a
   plain row of the spin handler, which runs the same boundaries. *)
let rec spin_queue t id time =
  let key = fresh_key t ~time in
  match t.chooser with
  | None -> spin_push t key id
  | Some _ -> push t (alloc t ~key ~tag:(spin_row_tag t) ~a:id ~b:0)

and spin_row_tag t =
  if t.spin_tag < 0 then t.spin_tag <- register_handler t (fun id _ -> spin_row t id);
  t.spin_tag

and spin_row t id =
  let rest = if t.n_spins = 0 then max_int else key_time (Array.unsafe_get t.skey 0) in
  let tn = spin_boundaries t id t.now rest in
  if tn < 0 then spin_wake t id else spin_queue t id tn

(* The earliest spin's boundary is due, ahead of every event. *)
let spin_step t =
  let id = Array.unsafe_get t.sid 0 in
  t.events_run <- t.events_run + 1;
  let time = key_time (Array.unsafe_get t.skey 0) in
  let tn = spin_boundaries t id time (spins_after_top t) in
  if tn < 0 then begin
    spin_pop_top t;
    spin_wake t id
  end
  else rekey_top t (fresh_key t ~time:tn)

let set_chooser t ?(horizon = 0) choose =
  if horizon < 0 then invalid_arg "Engine.set_chooser: negative horizon";
  t.chooser <- Some choose;
  t.horizon <- horizon;
  (* Chooser mode is pure-heap ([pop_chosen] peeks the heap top directly),
     so migrate anything already sitting in the ring, and turn spins into
     rows with the keys they had. *)
  drain_ring_to_push t (push t);
  while t.n_spins > 0 do
    let key = Array.unsafe_get t.skey 0 and id = Array.unsafe_get t.sid 0 in
    spin_pop_top t;
    push t (alloc t ~key ~tag:(spin_row_tag t) ~a:id ~b:0)
  done

let suspend t ~tag =
  let id = t.staged in
  if id < 0 then schedule_tag t ~delay:t.arg_cycles ~tag ~a:0 ~b:0
  else begin
    t.staged <- nil;
    Array.unsafe_set t.sp ((id * sp_stride) + s_tag) tag;
    spin_queue t id (t.now + t.arg_cycles)
  end

(* Would a spin boundary before [barrier] (a key at time [limit]) wake its
   spin? Spin heap entries are visited only while their keys are before
   the barrier. Nothing but spin boundaries runs before it, and those
   change nothing a predicate reads, so each predicate has one value over
   the window: a spin wakes in it iff its [wq] holds (at its next
   boundary) or its [wc] does and one of its chunk ends falls before the
   barrier. That is the boundary in flight when no chunk is left, or else
   the chunk's end if strictly before [limit]: a boundary at [limit]
   itself is keyed after the barrier, taking the fast path only strictly
   before it. *)
let rec spins_wake t barrier limit i =
  i < t.n_spins
  && Array.unsafe_get t.skey i < barrier
  && begin
       let id = Array.unsafe_get t.sid i in
       let left = Array.unsafe_get t.sp ((id * sp_stride) + s_left) in
       (Array.unsafe_get t.sp_wq id) ()
       || (left = 0 || key_time (Array.unsafe_get t.skey i) + left < limit)
          && (Array.unsafe_get t.sp_wc id) ()
       || spins_wake t barrier limit ((2 * i) + 1)
       || spins_wake t barrier limit ((2 * i) + 2)
     end

(* Is every slice of the spin at [b] in [sp] one quantum: does its quantum
   divide its chunk and the [left] of the slice in flight? Then it stays
   so, and is decided once, at the spin's first walk. *)
let fixed_step t b =
  let f = Array.unsafe_get t.sp (b + s_fixed) in
  if f >= 0 then f = 1
  else begin
    let q = Array.unsafe_get t.sp (b + s_quantum) in
    let fixed =
      Array.unsafe_get t.sp (b + s_chunk) mod q = 0
      && Array.unsafe_get t.sp (b + s_left) mod q = 0
    in
    Array.unsafe_set t.sp (b + s_fixed) (if fixed then 1 else 0);
    fixed
  end

(* The boundaries of a fixed-step spin keyed at [time] that run before
   [rest]: that one, and each later one strictly before [rest]. *)
let bounds ~quantum ~time rest = Int.max 1 ((rest - time + quantum - 1) / quantum)

(* Take [n] slices of the fixed-step spin at [b]: the chunk restarts
   whenever it runs out. *)
let take_slices t b n =
  let q = Array.unsafe_get t.sp (b + s_quantum) in
  let left = Array.unsafe_get t.sp (b + s_left) in
  let chunk = Array.unsafe_get t.sp (b + s_chunk) in
  let spent = n * q in
  let over = spent - left - q in
  Array.unsafe_set t.sp (b + s_left)
    (if over < 0 then left - spent
     else if over < chunk then chunk - q - over
     else chunk - q - (over mod chunk));
  Array.unsafe_set t.sp (b + s_spun) (Array.unsafe_get t.sp (b + s_spun) + spent)

(* The top spin's boundary is due before the barrier and known not to
   wake: re-arm it without consulting the predicates, taking the fast
   path through later boundaries as [spin_boundaries] would, with the
   caller's resume at [limit] still pending. A fixed-step spin's run is
   counted, not stepped. *)
let walk_top t limit =
  let id = Array.unsafe_get t.sid 0 in
  let b = id * sp_stride in
  t.events_run <- t.events_run + 1;
  let rest = Int.min (spins_after_top t) limit in
  let quantum = Array.unsafe_get t.sp (b + s_quantum) in
  let time = key_time (Array.unsafe_get t.skey 0) in
  if fixed_step t b then begin
    let n = bounds ~quantum ~time rest in
    t.advances <- t.advances + n - 1;
    take_slices t b n;
    rekey_top t (fresh_key t ~time:(time + (n * quantum)))
  end
  else begin
    let time = ref time in
    let continue = ref true in
    while !continue do
      let left = Array.unsafe_get t.sp (b + s_left) in
      let left = if left = 0 then Array.unsafe_get t.sp (b + s_chunk) else left in
      let d = Int.min quantum left in
      Array.unsafe_set t.sp (b + s_left) (left - d);
      Array.unsafe_set t.sp (b + s_spun) (Array.unsafe_get t.sp (b + s_spun) + d);
      time := !time + d;
      if !time < rest then t.advances <- t.advances + 1 else continue := false
    done;
    rekey_top t (fresh_key t ~time:!time)
  end

(* ----- idle spins: closed-form walks -----

   [walk_top] takes one run at a time: one event and one seq, for a
   spin's boundary and the ones it follows at once while no other spin's
   boundary comes first. With two spins or more that is a run per few
   boundaries, often per boundary. [walk_closed] computes what those runs
   leave without taking them. It applies when every spin of the window is
   fixed-step ([fixed_step]), so that a spin keyed at [T] with quantum [q]
   has its window boundaries at [T + k q] for [k < n = bounds], and its
   next key at [T + n q]; and lies at most one quantum ahead of the clock
   ([T - now <= q]: each was queued one slice after a boundary at or
   before [now]). Then:

   - A boundary at [x] follows its spin's boundary at [x - q] in one run
     iff no other spin has a boundary in [(x - q, x]], nor one at [x - q]
     ordered after it. So spins tied at a time each start a run there.
   - Tie order. Keys at a time [x] that the window started with come
     first, in their order. A key made in the window took its seq when
     the run of the boundary before it ran, so among those the larger
     quantum comes first (its run started at or before the other spin's,
     and not after it at a tie), and at equal quanta the order at [x - q]
     repeats, down to their first common boundary, where the spin with
     the later [T] still had its starting key: later [T] first, then
     starting order. The final keys, tied at a time, follow this order.
     They take the last [m] seqs of the runs, ranked within a time, not
     each the seq of its own spin's last run as stepped: their times,
     their order against every other key and the seq counter after the
     window are those of stepping, and keys are only ever compared.
   - Advances. A spin [j] with [q_j <= q_i] has a boundary in every one
     of [i]'s gaps ([T_j - T_i <= q_i], and [j]'s last boundary lies within
     [q_j] of [limit]), so [i] follows none of its boundaries. Only a spin
     with the unique least quantum [q_u] can. Every other spin's
     boundaries fall in distinct gaps of [u] (they are more than [q_u]
     apart), all of them in [u]'s window but [j]'s first when it is at or
     before [T_u] and its last when it is after [u]'s last. [u]'s first
     gap is also blocked by a spin tied at [T_u] after it. With three
     spins or more two spins' blocked gaps may coincide, so such a window
     is counted only when its least quantum is shared, and no spin
     advances.

   Any other window is stepped by [walk_top]: one with a spin that is not
   fixed-step, one with three spins or more whose least quantum is unique
   (0.8% of fuzz-diff's window boundaries at seed 1, all of them mixing
   40 and 50 cycles), and one with at most two boundaries per spin, which
   has none to skip. The walk allocates nothing: the window's spins are
   listed in a table of the domain's. *)

(* The spins of a window, as [try_advance] steps through it: per spin,
   [w_stride] ints of [tab] from [n * w_stride] on, in heap preorder, so a
   spin comes after its heap ancestors. One table per domain serves all
   its engines: nothing a walk runs can start another walk. *)
let w_slot = 0 (* heap slot *)
let w_key = 1 (* key at the window's start *)
let w_quantum = 2
let w_bounds = 3 (* boundaries in the window *)
let w_fin = 4 (* time of the key after them *)
let w_stride = 5

type window = { mutable tab : int array; mutable n : int }

let window_key =
  Domain.DLS.new_key (fun () -> { tab = Array.make (8 * w_stride) 0; n = 0 })

(* List in [w] the spins keyed before [barrier] from heap slot [i] down. *)
let rec collect t w barrier i =
  if i < t.n_spins && Array.unsafe_get t.skey i < barrier then begin
    let o = w.n * w_stride in
    if o = Array.length w.tab then begin
      let bigger = Array.make (2 * o) 0 in
      Array.blit w.tab 0 bigger 0 o;
      w.tab <- bigger
    end;
    Array.unsafe_set w.tab (o + w_slot) i;
    Array.unsafe_set w.tab (o + w_key) (Array.unsafe_get t.skey i);
    w.n <- w.n + 1;
    collect t w barrier ((2 * i) + 1);
    collect t w barrier ((2 * i) + 2)
  end

(* The advances of the window's least-quantum spin, row [u] of [tab],
   beside the one other spin, row [1 - u]: its gaps that spin's boundaries
   do not block. *)
let closed_advances tab u =
  let o = u * w_stride and oj = (1 - u) * w_stride in
  let qu = Array.unsafe_get tab (o + w_quantum) and ku = Array.unsafe_get tab (o + w_key) in
  let nu = Array.unsafe_get tab (o + w_bounds) in
  let qj = Array.unsafe_get tab (oj + w_quantum) and kj = Array.unsafe_get tab (oj + w_key) in
  let nj = Array.unsafe_get tab (oj + w_bounds) in
  let tu = key_time ku and tj = key_time kj in
  let last = tu + ((nu - 1) * qu) in
  let hits =
    nj - (if tj <= tu then 1 else 0) - if tj + ((nj - 1) * qj) > last then 1 else 0
  in
  let tied_after = tj = tu && kj > ku in
  let first_hit = (if tj > tu then tj else tj + qj) <= tu + qu in
  if nu < 2 then 0 else nu - 1 - hits - if tied_after && not first_hit then 1 else 0

(* Does row [a]'s final key go before row [b]'s, at the same time? Larger
   quantum first, then later starting time, then starting order. *)
let tied_before tab a b =
  let oa = a * w_stride and ob = b * w_stride in
  let qa = Array.unsafe_get tab (oa + w_quantum) and qb = Array.unsafe_get tab (ob + w_quantum) in
  let ka = Array.unsafe_get tab (oa + w_key) and kb = Array.unsafe_get tab (ob + w_key) in
  qa > qb || (qa = qb && (key_time ka > key_time kb || (key_time ka = key_time kb && ka < kb)))

(* [walk]'s loop in closed form for the spins keyed before [barrier], if
   it applies and pays: a window with about one boundary per spin has
   none to skip, and is stepped in about as many runs as the closed form
   has spins to order. [false] leaves their keys and counts as they
   were. *)
let walk_closed t barrier limit =
  let w = Domain.DLS.get window_key in
  w.n <- 0;
  collect t w barrier 0;
  let tab = w.tab and m = w.n in
  let fixed = ref true and total = ref 0 in
  let qmin = ref max_int and nmin = ref 0 and u = ref 0 in
  for k = 0 to m - 1 do
    let o = k * w_stride in
    let b = Array.unsafe_get t.sid (Array.unsafe_get tab (o + w_slot)) * sp_stride in
    let q = Array.unsafe_get t.sp (b + s_quantum) in
    let time = key_time (Array.unsafe_get tab (o + w_key)) in
    if time - t.now > q || not (fixed_step t b) then fixed := false;
    let n = bounds ~quantum:q ~time limit in
    Array.unsafe_set tab (o + w_quantum) q;
    Array.unsafe_set tab (o + w_bounds) n;
    Array.unsafe_set tab (o + w_fin) (time + (n * q));
    total := !total + n;
    if q < !qmin then begin
      qmin := q;
      nmin := 1;
      u := k
    end
    else if q = !qmin then incr nmin
  done;
  let adv =
    if (not !fixed) || !total <= 2 * m then -1
    else if !nmin > 1 then 0
    else if m > 2 then -1
    else closed_advances tab !u
  in
  let runs = !total - adv in
  if adv >= 0 && t.seq + runs > seq_mask then renumber t;
  if adv < 0 || t.seq + runs > seq_mask then false
  else begin
    (* The final keys take the last seqs of the runs, ranked where their
       times tie. Rows go descendants first, so each re-keyed slot's
       subtrees are heaps again when it sifts down. *)
    let base = t.seq + runs - m in
    for k = m - 1 downto 0 do
      let o = k * w_stride in
      let slot = Array.unsafe_get tab (o + w_slot) in
      let id = Array.unsafe_get t.sid slot in
      let fin = Array.unsafe_get tab (o + w_fin) in
      let rank = ref 0 in
      for j = 0 to m - 1 do
        if Array.unsafe_get tab ((j * w_stride) + w_fin) = fin && j <> k && tied_before tab j k then
          incr rank
      done;
      take_slices t (id * sp_stride) (Array.unsafe_get tab (o + w_bounds));
      sift_down t.skey t.sid t.n_spins slot ((fin lsl seq_bits) lor (base + !rank)) id
    done;
    t.seq <- t.seq + runs;
    t.events_run <- t.events_run + runs;
    t.advances <- t.advances + adv;
    true
  end

(* [try_advance] when the window up to [limit] holds only spin
   boundaries: unless one of them wakes, run them all and move the clock,
   counting the window as the event the caller's resume would have been
   (its seq is taken, so later keys stay as they would be). Kept out of
   line: [try_advance], which every delay calls, stays small enough to
   inline into its callers. *)
let[@inline never] walk t limit =
  if t.seq >= seq_mask then renumber t;
  let barrier = (limit lsl seq_bits) lor t.seq in
  if spins_wake t barrier limit 0 then false
  else begin
    t.seq <- t.seq + 1;
    t.barrier <- barrier;
    let several =
      t.n_spins > 1
      && (Array.unsafe_get t.skey 1 < barrier
         || (t.n_spins > 2 && Array.unsafe_get t.skey 2 < barrier))
    in
    if not (several && walk_closed t barrier limit) then
      while Array.unsafe_get t.skey 0 < t.barrier do
        walk_top t limit
      done;
    t.barrier <- max_int;
    t.now <- limit;
    t.events_run <- t.events_run + 1;
    true
  end

(* Fast path for Process.delay: advance the clock without a suspend when no
   pending event falls inside the window (strictly — an event at exactly
   [now + cycles] predates the would-be resume in seq order), stepping
   through the spin boundaries in it. *)
let try_advance t ~cycles =
  match t.chooser with
  | Some _ -> false
  | None ->
      if cycles < 0 then invalid_arg "Engine.try_advance: negative cycles";
      (* [cycles <= t.until - t.now] (overflow-safe: both sides are
         non-negative ints) keeps [now] inside the packed key's time field,
         and inside [run_until]'s horizon. Past that, decline the fast path:
         the slow path's [schedule_tag] queues the resume for the run loop,
         or reports the clock overflow instead of [now] silently wrapping
         into the seq bits. *)
      let limit = t.now + cycles in
      if cycles <= t.until - t.now && peek_events t > limit then begin
        if t.n_spins = 0 || key_time (Array.unsafe_get t.skey 0) > limit then begin
          t.now <- limit;
          t.advances <- t.advances + 1;
          true
        end
        else walk t limit
      end
      else false

let spin_pending = min_int

(* [spin]'s first boundaries, in the caller's process: while the window to
   each is free ([try_advance]), consult the predicates there; at the
   first window that is not, stage the spin for the caller's suspension. *)
let rec spin_fast t ~quantum ~chunk ~left ~spun wq wc =
  let d = Int.min quantum left in
  let left = left - d in
  let spun = spun + d in
  if try_advance t ~cycles:d then begin
    t.spin_spun <- spun;
    if wq () then left
    else if left > 0 then spin_fast t ~quantum ~chunk ~left ~spun wq wc
    else if wc () then -1
    else spin_fast t ~quantum ~chunk ~left:chunk ~spun wq wc
  end
  else begin
    t.staged <- spin_alloc t ~quantum ~chunk ~left ~spun wq wc;
    t.arg_cycles <- d;
    spin_pending
  end

let spin t ~quantum ~chunk ~left wq wc =
  if quantum <= 0 || chunk <= 0 || left <= 0 then
    invalid_arg "Engine.spin: nonpositive quantum, chunk or left";
  spin_fast t ~quantum ~chunk ~left ~spun:0 wq wc

let spin_result t = t.spin_result
let spin_spun t = t.spin_spun

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
  if t.n_spins > 0 && Array.unsafe_get t.skey 0 < events_front_key t then begin
    spin_step t;
    true
  end
  else begin
    let ev = match t.chooser with None -> pop t | Some choose -> pop_chosen t choose in
    if ev = nil then false
    else begin
      let time = key_time (Array.unsafe_get t.store (ev + f_key)) in
      if time > t.now then t.now <- time;
      dispatch t ev;
      true
    end
  end

(* The chooser-free branch drains the queues without going through
   [step]/[pop]'s per-event branching. When the front of the queue is a
   ring slot and the heap cannot interleave (its top is strictly later),
   the whole slot is drained in place — the common "many events this
   cycle" case pays the ring/heap comparison, the [ring_min] read,
   and the outer dispatch branch once per cycle instead of once per
   event. This is order-exact: with no chooser, a schedule issued during
   the drain targets either this same instant — it lands at the tail of
   this very slot with a strictly larger seq and is drained in turn — or
   a strictly later time; and the heap only ever gains later times too (a
   near-future schedule goes to the ring, a far one is ≥ ring_size cycles
   away). Spins interleave by key: the loop takes the top spin's boundary
   when its key is the earliest, and drains a slot whole only when no spin
   boundary falls at its time (a spin queued during the drain is at least
   one slice later). The two events that can move ring events into the
   heap mid-drain, [set_chooser] and [renumber], both empty the slot
   through [drain_ring_to_push], which terminates the inner loop with
   every count intact. The [t.now = rt] guard covers the one remaining
   wrinkle: while the slot is non-empty [try_advance] cannot move the
   clock ([peek_events] = rt = now), but once a callback has emptied the
   slot it may advance the clock and then schedule an event exactly
   [ring_size] cycles past [rt] — same slot, later time — which must go
   back through the outer loop's time bookkeeping. The chooser is still
   consulted per event so installing one mid-run behaves exactly as it
   did through [step]. *)
let run t =
  let continue = ref true in
  while !continue do
    match t.chooser with
    | Some _ -> continue := step t
    | None ->
        if t.ring_count = 0 && t.size = 0 then begin
          if t.n_spins > 0 then spin_step t else continue := false
        end
        else begin
          let rt = t.ring_min in
          if t.size > 0 && key_time (Array.unsafe_get t.hkey 0) <= rt then begin
            if t.n_spins > 0 && Array.unsafe_get t.skey 0 < Array.unsafe_get t.hkey 0 then
              spin_step t
            else begin
              let ev = heap_pop t in
              let time = key_time (Array.unsafe_get t.store (ev + f_key)) in
              if time > t.now then t.now <- time;
              dispatch t ev
            end
          end
          else if t.n_spins > 0 && key_time (Array.unsafe_get t.skey 0) <= rt then begin
            if Array.unsafe_get t.skey 0 < ring_head_key t rt then spin_step t
            else begin
              if rt > t.now then t.now <- rt;
              dispatch t (ring_pop t rt)
            end
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

let peek_time t =
  let e = peek_events t in
  if t.n_spins = 0 then e else Int.min e (key_time (Array.unsafe_get t.skey 0))

let rec run_to t time =
  if peek_time t <= time then begin
    ignore (step t : bool);
    run_to t time
  end

let run_until t ~time =
  if time > max_time then
    invalid_arg (Printf.sprintf "Engine.run_until: time %d overflows the clock" time);
  t.until <- time;
  (match run_to t time with
  | () -> t.until <- max_time
  | exception e ->
      t.until <- max_time;
      raise e);
  if t.now < time && t.ring_count = 0 && t.size = 0 && t.n_spins = 0 then t.now <- time
