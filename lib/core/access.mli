(** User-mode memory accesses through the TLB.

    The full translation path: TLB lookup under the current (user, when PTI
    is on) PCID; on a miss, a page walk priced by the paging-structure-cache
    temperature; on a permission or not-present condition, the page-fault
    handler and a retry. Every TLB {e hit} is verified against the page
    table by the {!Checker}, which is how unsafe flush protocols are caught.

    The calling process must be a user thread whose CPU has the target
    address space loaded (see {!Kernel.spawn_user}). *)

val read : Machine.t -> cpu:int -> vaddr:int -> unit
[@@tlblint.allow "R5 paper entry point: a checked user read, which tests pin"]
val write : Machine.t -> cpu:int -> vaddr:int -> unit

(** Like {!read}/{!write} but returns the pfn the access observed (through
    the TLB or the walk that refilled it) — the per-CPU observable the
    differential fuzzer diffs between optimized and oracle runs. *)
val translate : Machine.t -> cpu:int -> vaddr:int -> write:bool -> int

(** Touch [pages] consecutive pages starting at [addr] (one access each). *)
val touch_range : Machine.t -> cpu:int -> addr:int -> pages:int -> write:bool -> unit
