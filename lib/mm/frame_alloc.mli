(** Physical frame allocator with per-frame reference counts.

    Hands out 4 KiB frame numbers (and 512-frame-aligned hugepage runs) from
    a fixed pool, with a free list so teardown paths genuinely recycle
    memory — the recycling is what makes stale TLB entries dangerous, which
    the {!Checker} exploits to detect unsafe flush batching.

    Frames are reference-counted like struct page: {!alloc} returns a frame
    at count 1, every additional mapping takes {!ref_get}, and {!free}
    drops one reference, releasing the frame when the last goes — the
    machinery COW sharing (fork, private file mappings) sits on. *)

type t

(** [create ~frames] with [frames] 4 KiB frames of "RAM". Per-frame state
    is sized to the highest frame handed out so far, so [create] costs the
    same at any [frames]; frames never allocated read as free, with count
    and generation 0. *)
val create : frames:int -> t

exception Out_of_memory

(** Allocate one 4 KiB frame at reference count 1. *)
val alloc : t -> int

(** Allocate a 2 MiB-aligned run of 512 frames; returns the first PFN.
    Hugepage runs are not reference-counted (never shared here). *)
val alloc_huge : t -> int

(** Take an additional reference on an allocated frame. *)
val ref_get : t -> int -> unit

(** Current reference count (0 when free). *)
val refcount : t -> int -> int

(** Drop one reference; the frame is released and recyclable when the last
    reference goes. *)
val free : t -> int -> unit

val free_huge : t -> int -> unit

(** Is the frame currently allocated? *)
val is_allocated : t -> int -> bool
[@@tlblint.allow "R5 state accessor: tests read frame ownership through it"]

val allocated : t -> int

(** Generation counter for a frame: bumped on every free, so a stale
    reference can detect reuse. *)
val generation : t -> int -> int
[@@tlblint.allow "R5 state accessor: tests read frame reuse through it"]
