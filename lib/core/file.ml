(* tlblint: proven-bounds — every Array.unsafe_get/set on the pagecache and
   dirty tables is dominated by [check t index], which rejects indices
   outside [0, size); the tables are allocated with exactly [size] slots.
   [iter_dirty] reads its snapshot, also [size] bytes, at indices it has
   clamped to [0, size). *)
(* Page indices are dense (0 .. size_pages-1), so the pagecache and dirty
   set are flat per-page tables rather than hashtables: mmap-heavy
   workloads (Apache serves every request out of [frame_of_page]) hit
   these once per faulted page, and generic hashing was a measurable share
   of that path. [iter_dirty] visits pages in ascending index order. *)
type t = {
  frames : Frame_alloc.t;
  file_name : string;
  size : int;
  pagecache : int array;  (* page index -> pfn, -1 = not cached *)
  dirty : Bytes.t;  (* 1 byte per page: 0 clean, 1 dirty *)
  mutable spares : Bytes.t array;  (* [n_spares] snapshots no walk is using *)
  mutable n_spares : int;
}

let create frames ~name ~size_pages =
  if size_pages <= 0 then invalid_arg "File.create: size must be positive";
  {
    frames;
    file_name = name;
    size = size_pages;
    pagecache = Array.make size_pages (-1);
    dirty = Bytes.make size_pages '\000';
    spares = [||];
    n_spares = 0;
  }

let check t index =
  if index < 0 || index >= t.size then
    invalid_arg (Printf.sprintf "File %s: page %d out of range [0,%d)" t.file_name index t.size)

let frame_of_page t ~index =
  check t index;
  let pfn = Array.unsafe_get t.pagecache index in
  if pfn >= 0 then pfn
  else begin
    let pfn = Frame_alloc.alloc t.frames in
    Array.unsafe_set t.pagecache index pfn;
    pfn
  end

let cached t ~index =
  check t index;
  t.pagecache.(index) >= 0

let mark_dirty t ~index =
  check t index;
  Bytes.unsafe_set t.dirty index '\001'

let clear_dirty t ~index =
  check t index;
  Bytes.unsafe_set t.dirty index '\000'

let is_dirty t ~index =
  check t index;
  Bytes.unsafe_get t.dirty index = '\001'

(* The walk visits the pages dirty when it starts, as a sync that tags
   them first does: [f] may yield, and pages that other threads dirty
   meanwhile are left to the next sync. Each walk copies the range into a
   snapshot of its own — syncs of one file can run concurrently — taken
   from and returned to [spares], so a warm walk allocates nothing. *)
let iter_dirty t ~index ~count f =
  let lo = Stdlib.max 0 index and hi = Stdlib.min t.size (index + count) in
  if lo < hi then begin
    let snap =
      if t.n_spares = 0 then Bytes.create t.size
      else begin
        t.n_spares <- t.n_spares - 1;
        t.spares.(t.n_spares)
      end
    in
    Bytes.blit t.dirty lo snap lo (hi - lo);
    for i = lo to hi - 1 do
      if Bytes.unsafe_get snap i = '\001' then f i
    done;
    if t.n_spares = Array.length t.spares then begin
      let spares = Array.make (Stdlib.max 4 (2 * t.n_spares)) snap in
      Array.blit t.spares 0 spares 0 t.n_spares;
      t.spares <- spares
    end;
    t.spares.(t.n_spares) <- snap;
    t.n_spares <- t.n_spares + 1
  end
