(** A memory-mappable file with a page cache and dirty tracking.

    Backs the Sysbench (random writes + fdatasync) and Apache (per-request
    mmap of served files) workloads. Pages get physical frames on first
    touch; writeback enumerates dirty pages so msync/fdatasync can
    write-protect and clean them (the shootdown-heavy path of §4.2). *)

type t

val create : Frame_alloc.t -> name:string -> size_pages:int -> t

(** Physical frame of file page [index], filling the page cache on demand.
    Raises [Invalid_argument] past EOF. *)
val frame_of_page : t -> index:int -> int

(** Is the page already in the page cache? *)
val cached : t -> index:int -> bool

val mark_dirty : t -> index:int -> unit
val clear_dirty : t -> index:int -> unit
val is_dirty : t -> index:int -> bool

(** [iter_dirty t ~index ~count f] calls [f] on each page of
    \[index, index+count) that is dirty when the call starts, in ascending
    order, whatever [f] or concurrent writers dirty or clean meanwhile. *)
val iter_dirty : t -> index:int -> count:int -> (int -> unit) -> unit
