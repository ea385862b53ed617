exception Out_of_memory

(* Single frames are bump-allocated up from 0; hugepage runs are carved
   down from the top. Each kind keeps its per-frame state in its own
   [half], indexed by a row: a single's row is its pfn, a hugepage
   frame's is its distance below the top frame. A half holds its rows in
   chunks of [chunk_size], added as the rows in use grow, so [create]
   costs the same at any RAM size (no workload comes near filling the
   1 GiB default, and a machine is built per simulation cell), and every
   table is small enough for the minor heap: a table grown as one array
   would drop ever larger arrays straight into the major heap as a
   machine warms up, and one dense table reaching the top frame would be
   as large as the machine's RAM, for one hugepage. Rows past a half's
   chunks have never been allocated, so they read as free, count 0 and
   generation 0. *)
type half = {
  mutable chunks : int;  (* chunks in use: rows [0, chunks * chunk_size) *)
  mutable used : Bytes.t array;  (* 1 byte per frame: 0 free, 1 allocated *)
  mutable refcounts : int array array;
  mutable generations : int array array;
}

type t = {
  frames : int;
  lo : half;  (* single frames, below [huge_floor] *)
  hi : half;  (* hugepage frames, at or above [huge_floor] *)
  mutable free_ring : int array;
      (* freed singles, reused oldest first: [free_len] of them from
         [free_head], modulo the ring's power-of-two length *)
  mutable free_head : int;
  mutable free_len : int;
  mutable next_fresh : int;  (* frames never yet allocated, bump pointer *)
  mutable huge_floor : int;  (* hugepage runs grow down from the top *)
  mutable n_allocated : int;
}

let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

let new_half () = { chunks = 0; used = [||]; refcounts = [||]; generations = [||] }

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_alloc.create: frames must be positive";
  {
    frames;
    lo = new_half ();
    hi = new_half ();
    free_ring = [||];
    free_head = 0;
    free_len = 0;
    next_fresh = 0;
    huge_floor = frames;
    n_allocated = 0;
  }

let extend a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Make rows [0, rows) of [h] addressable, doubling its chunk lists when
   they are full. *)
let ensure h rows =
  let need = (rows + chunk_mask) lsr chunk_bits in
  if need > h.chunks then begin
    if need > Array.length h.used then begin
      let n = Stdlib.max need (Stdlib.max 4 (2 * Array.length h.used)) in
      h.used <- extend h.used n Bytes.empty;
      h.refcounts <- extend h.refcounts n [||];
      h.generations <- extend h.generations n [||]
    end;
    for c = h.chunks to need - 1 do
      h.used.(c) <- Bytes.make chunk_size '\000';
      h.refcounts.(c) <- Array.make chunk_size 0;
      h.generations.(c) <- Array.make chunk_size 0
    done;
    h.chunks <- need
  end

(* Where a frame's state sits: its half, and its row there. *)
let[@inline] half t pfn = if pfn >= t.huge_floor then t.hi else t.lo
let[@inline] row t pfn = if pfn >= t.huge_floor then t.frames - 1 - pfn else pfn
let[@inline] has h r = r lsr chunk_bits < h.chunks

let is_allocated t pfn =
  pfn >= 0 && pfn < t.frames
  &&
  let h = half t pfn and r = row t pfn in
  has h r && Bytes.get h.used.(r lsr chunk_bits) (r land chunk_mask) = '\001'

let mark t pfn v =
  let h = half t pfn and r = row t pfn in
  Bytes.set h.used.(r lsr chunk_bits) (r land chunk_mask) (if v then '\001' else '\000')

(* A frame's count and generation; 0 past its half's chunks. *)
let get_count t pfn =
  let h = half t pfn and r = row t pfn in
  if has h r then h.refcounts.(r lsr chunk_bits).(r land chunk_mask) else 0

let set_count t pfn v =
  let h = half t pfn and r = row t pfn in
  h.refcounts.(r lsr chunk_bits).(r land chunk_mask) <- v

let get_generation t pfn =
  let h = half t pfn and r = row t pfn in
  if has h r then h.generations.(r lsr chunk_bits).(r land chunk_mask) else 0

let bump_generation t pfn =
  let h = half t pfn and r = row t pfn in
  let g = h.generations.(r lsr chunk_bits) in
  g.(r land chunk_mask) <- g.(r land chunk_mask) + 1

(* Queue a freed single at the ring's tail, doubling a full ring. *)
let push_free t pfn =
  let n = Array.length t.free_ring in
  if t.free_len = n then begin
    let ring = Array.make (Stdlib.max 64 (2 * n)) 0 in
    for i = 0 to n - 1 do
      ring.(i) <- t.free_ring.((t.free_head + i) land (n - 1))
    done;
    t.free_ring <- ring;
    t.free_head <- 0
  end;
  let ring = t.free_ring in
  ring.((t.free_head + t.free_len) land (Array.length ring - 1)) <- pfn;
  t.free_len <- t.free_len + 1

let alloc t =
  let pfn =
    if t.free_len > 0 then begin
      let pfn = t.free_ring.(t.free_head) in
      t.free_head <- (t.free_head + 1) land (Array.length t.free_ring - 1);
      t.free_len <- t.free_len - 1;
      pfn
    end
    else if t.next_fresh >= t.huge_floor then raise Out_of_memory
    else begin
      let pfn = t.next_fresh in
      t.next_fresh <- t.next_fresh + 1;
      ensure t.lo (pfn + 1);
      pfn
    end
  in
  assert (not (is_allocated t pfn));
  mark t pfn true;
  set_count t pfn 1;
  t.n_allocated <- t.n_allocated + 1;
  pfn

let ref_get t pfn =
  if not (is_allocated t pfn) then
    invalid_arg (Printf.sprintf "Frame_alloc.ref_get: frame %d not allocated" pfn);
  set_count t pfn (get_count t pfn + 1)

let refcount t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.refcount";
  get_count t pfn

let alloc_huge t =
  (* The run must be 2 MiB-aligned: round the candidate base down. *)
  let base = (t.huge_floor - Addr.pages_per_huge) land lnot (Addr.pages_per_huge - 1) in
  if base < t.next_fresh then raise Out_of_memory;
  t.huge_floor <- base;
  ensure t.hi (t.frames - base);
  for pfn = base to base + Addr.pages_per_huge - 1 do
    assert (not (is_allocated t pfn));
    mark t pfn true
  done;
  t.n_allocated <- t.n_allocated + Addr.pages_per_huge;
  base

let free t pfn =
  if not (is_allocated t pfn) then
    invalid_arg (Printf.sprintf "Frame_alloc.free: frame %d not allocated" pfn);
  let n = get_count t pfn - 1 in
  set_count t pfn n;
  if n = 0 then begin
    mark t pfn false;
    bump_generation t pfn;
    t.n_allocated <- t.n_allocated - 1;
    push_free t pfn
  end

let free_huge t base =
  if base land (Addr.pages_per_huge - 1) <> 0 then
    invalid_arg "Frame_alloc.free_huge: base not hugepage-aligned";
  for pfn = base to base + Addr.pages_per_huge - 1 do
    if not (is_allocated t pfn) then
      invalid_arg (Printf.sprintf "Frame_alloc.free_huge: frame %d not allocated" pfn);
    mark t pfn false;
    bump_generation t pfn
  done;
  t.n_allocated <- t.n_allocated - Addr.pages_per_huge
(* Hugepage runs are not recycled into the single-frame free list; they are
   rare in the experiments and keeping them apart preserves alignment. *)

let allocated t = t.n_allocated

let generation t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.generation";
  get_generation t pfn
