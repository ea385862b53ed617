exception Out_of_memory

(* The per-frame arrays cover frames [0, size) only, where size tracks the
   highest frame ever handed out (the bump pointer's high-water mark, or
   the top of a hugepage run) and grows by doubling. Frames at or above
   size have never been allocated, so they read as free, count 0 and
   generation 0. [create] then costs the same at any RAM size: no
   workload comes near filling the 1 GiB default, and a machine is built
   per simulation cell. *)
type t = {
  frames : int;
  mutable used : Bytes.t;  (* 1 byte per frame: 0 free, 1 allocated *)
  mutable refcounts : int array;
  mutable generations : int array;
  free_list : int Queue.t;  (* singles *)
  mutable next_fresh : int;  (* frames never yet allocated, bump pointer *)
  mutable huge_floor : int;  (* hugepage runs grow down from the top *)
  mutable n_allocated : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_alloc.create: frames must be positive";
  {
    frames;
    used = Bytes.empty;
    refcounts = [||];
    generations = [||];
    free_list = Queue.create ();
    next_fresh = 0;
    huge_floor = frames;
    n_allocated = 0;
  }

(* Make frames [0, pfn] addressable: at least double, never past [frames]. *)
let grow t pfn =
  let size = Array.length t.refcounts in
  let size' = Stdlib.min t.frames (Stdlib.max (pfn + 1) (Stdlib.max 64 (2 * size))) in
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

let is_allocated t pfn =
  pfn >= 0 && pfn < Bytes.length t.used && Bytes.get t.used pfn = '\001'

let mark t pfn v =
  Bytes.set t.used pfn (if v then '\001' else '\000')

let alloc t =
  let pfn =
    match Queue.take_opt t.free_list with
    | Some pfn -> pfn
    | None ->
        if t.next_fresh >= t.huge_floor then raise Out_of_memory
        else begin
          let pfn = t.next_fresh in
          t.next_fresh <- t.next_fresh + 1;
          ensure t pfn;
          pfn
        end
  in
  assert (not (is_allocated t pfn));
  mark t pfn true;
  t.refcounts.(pfn) <- 1;
  t.n_allocated <- t.n_allocated + 1;
  pfn

let ref_get t pfn =
  if not (is_allocated t pfn) then
    invalid_arg (Printf.sprintf "Frame_alloc.ref_get: frame %d not allocated" pfn);
  t.refcounts.(pfn) <- t.refcounts.(pfn) + 1

let refcount t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.refcount";
  if pfn < Array.length t.refcounts then t.refcounts.(pfn) else 0

let alloc_huge t =
  (* The run must be 2 MiB-aligned: round the candidate base down. *)
  let base = (t.huge_floor - Addr.pages_per_huge) land lnot (Addr.pages_per_huge - 1) in
  if base < t.next_fresh then raise Out_of_memory;
  t.huge_floor <- base;
  ensure t (base + Addr.pages_per_huge - 1);
  for pfn = base to base + Addr.pages_per_huge - 1 do
    assert (not (is_allocated t pfn));
    mark t pfn true
  done;
  t.n_allocated <- t.n_allocated + Addr.pages_per_huge;
  base

let free t pfn =
  if not (is_allocated t pfn) then
    invalid_arg (Printf.sprintf "Frame_alloc.free: frame %d not allocated" pfn);
  t.refcounts.(pfn) <- t.refcounts.(pfn) - 1;
  if t.refcounts.(pfn) = 0 then begin
    mark t pfn false;
    t.generations.(pfn) <- t.generations.(pfn) + 1;
    t.n_allocated <- t.n_allocated - 1;
    Queue.push pfn t.free_list
  end

let free_huge t base =
  if base land (Addr.pages_per_huge - 1) <> 0 then
    invalid_arg "Frame_alloc.free_huge: base not hugepage-aligned";
  for pfn = base to base + Addr.pages_per_huge - 1 do
    if not (is_allocated t pfn) then
      invalid_arg (Printf.sprintf "Frame_alloc.free_huge: frame %d not allocated" pfn);
    mark t pfn false;
    t.generations.(pfn) <- t.generations.(pfn) + 1
  done;
  t.n_allocated <- t.n_allocated - Addr.pages_per_huge
(* Hugepage runs are not recycled into the single-frame free list; they are
   rare in the experiments and keeping them apart preserves alignment. *)

let allocated t = t.n_allocated

let generation t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.generation";
  if pfn < Array.length t.generations then t.generations.(pfn) else 0
