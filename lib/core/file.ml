(* tlblint: proven-bounds — every Array.unsafe_get/set on the pagecache and
   dirty tables is dominated by [check t index], which rejects indices
   outside [0, size); the tables are allocated with exactly [size] slots. *)
(* Page indices are dense (0 .. size_pages-1), so the pagecache and dirty
   set are flat per-page tables rather than hashtables: mmap-heavy
   workloads (Apache serves every request out of [frame_of_page]) hit
   these once per faulted page, and generic hashing was a measurable share
   of that path. [dirty_in_range] visits pages in ascending index
   order. *)
type t = {
  frames : Frame_alloc.t;
  file_name : string;
  size : int;
  pagecache : int array;  (* page index -> pfn, -1 = not cached *)
  dirty : Bytes.t;  (* 1 byte per page: 0 clean, 1 dirty *)
}

let create frames ~name ~size_pages =
  if size_pages <= 0 then invalid_arg "File.create: size must be positive";
  {
    frames;
    file_name = name;
    size = size_pages;
    pagecache = Array.make size_pages (-1);
    dirty = Bytes.make size_pages '\000';
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

let dirty_in_range t ~index ~count =
  let lo = Stdlib.max 0 index and hi = Stdlib.min t.size (index + count) in
  let acc = ref [] in
  for i = hi - 1 downto lo do
    if Bytes.unsafe_get t.dirty i = '\001' then acc := i :: !acc
  done;
  !acc
