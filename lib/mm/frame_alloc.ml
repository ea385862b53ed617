exception Out_of_memory

(* Single frames are bump-allocated up from 0; hugepage runs are carved
   down from the top. The singles' per-frame arrays cover frames
   [0, size) only, where size tracks the highest single handed out and
   grows by doubling; frames at or above it have never been allocated, so
   they read as free, count 0 and generation 0. [create] then costs the
   same at any RAM size: no workload comes near filling the 1 GiB default,
   and a machine is built per simulation cell. Frames at or above
   [huge_floor] (the hugepage runs) keep their state apart, indexed down
   from the top frame in chunks of [chunk_size] frames, the largest array
   OCaml allocates in the minor heap: one dense table reaching the top
   frame would be as large as the machine's RAM, straight into the major
   heap, for one hugepage. *)
type t = {
  frames : int;
  mutable used : Bytes.t;  (* 1 byte per frame: 0 free, 1 allocated *)
  mutable refcounts : int array;
  mutable generations : int array;
  mutable hi_used : Bytes.t array;
      (* hugepage frames: chunk [(frames - 1 - pfn) / chunk_size] *)
  mutable hi_refcounts : int array array;
  mutable hi_generations : int array array;
  mutable free_ring : int array;
      (* freed singles, reused oldest first: [free_len] of them from
         [free_head], modulo the ring's power-of-two length *)
  mutable free_head : int;
  mutable free_len : int;
  mutable next_fresh : int;  (* frames never yet allocated, bump pointer *)
  mutable huge_floor : int;  (* hugepage runs grow down from the top *)
  mutable n_allocated : int;
}

let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_alloc.create: frames must be positive";
  {
    frames;
    used = Bytes.empty;
    refcounts = [||];
    generations = [||];
    hi_used = [||];
    hi_refcounts = [||];
    hi_generations = [||];
    free_ring = [||];
    free_head = 0;
    free_len = 0;
    next_fresh = 0;
    huge_floor = frames;
    n_allocated = 0;
  }

(* Make single frames [0, pfn] addressable: at least double, never into
   the hugepage runs. *)
let grow t pfn =
  let size = Array.length t.refcounts in
  let size' = Stdlib.min t.huge_floor (Stdlib.max (pfn + 1) (Stdlib.max 64 (2 * size))) in
  let used = Bytes.make size' '\000' in
  Bytes.blit t.used 0 used 0 size;
  let extend a =
    let a' = Array.make size' 0 in
    Array.blit a 0 a' 0 size;
    a'
  in
  t.used <- used;
  t.refcounts <- extend t.refcounts;
  t.generations <- extend t.generations

let[@inline] ensure t pfn = if pfn >= Array.length t.refcounts then grow t pfn

(* Make the hugepage frames [pfn, frames) addressable. *)
let ensure_high t pfn =
  let chunks = ((t.frames - 1 - pfn) lsr chunk_bits) + 1 in
  let have = Array.length t.hi_used in
  if chunks > have then begin
    let extend a fresh =
      Array.init chunks (fun c -> if c < have then a.(c) else fresh ())
    in
    t.hi_used <- extend t.hi_used (fun () -> Bytes.make chunk_size '\000');
    t.hi_refcounts <- extend t.hi_refcounts (fun () -> Array.make chunk_size 0);
    t.hi_generations <- extend t.hi_generations (fun () -> Array.make chunk_size 0)
  end

(* Where a hugepage frame's state sits: its chunk, and its index there. *)
let[@inline] hi_chunk t pfn = (t.frames - 1 - pfn) lsr chunk_bits
let[@inline] hi_index t pfn = (t.frames - 1 - pfn) land chunk_mask

let is_allocated t pfn =
  if pfn >= t.huge_floor then
    pfn < t.frames && Bytes.get t.hi_used.(hi_chunk t pfn) (hi_index t pfn) = '\001'
  else pfn >= 0 && pfn < Bytes.length t.used && Bytes.get t.used pfn = '\001'

let mark t pfn v =
  let c = if v then '\001' else '\000' in
  if pfn >= t.huge_floor then Bytes.set t.hi_used.(hi_chunk t pfn) (hi_index t pfn) c
  else Bytes.set t.used pfn c

(* A frame's count and generation; 0 past the singles' tables. *)
let get_count t pfn =
  if pfn >= t.huge_floor then t.hi_refcounts.(hi_chunk t pfn).(hi_index t pfn)
  else if pfn < Array.length t.refcounts then t.refcounts.(pfn)
  else 0

let set_count t pfn v =
  if pfn >= t.huge_floor then t.hi_refcounts.(hi_chunk t pfn).(hi_index t pfn) <- v
  else t.refcounts.(pfn) <- v

let get_generation t pfn =
  if pfn >= t.huge_floor then t.hi_generations.(hi_chunk t pfn).(hi_index t pfn)
  else if pfn < Array.length t.generations then t.generations.(pfn)
  else 0

let bump_generation t pfn =
  if pfn >= t.huge_floor then begin
    let g = t.hi_generations.(hi_chunk t pfn) in
    g.(hi_index t pfn) <- g.(hi_index t pfn) + 1
  end
  else t.generations.(pfn) <- t.generations.(pfn) + 1

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
      ensure t pfn;
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
  ensure_high t base;
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
