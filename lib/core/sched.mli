(** Address-space loading, PCID recycling and lazy-TLB mode.

    [switch_mm] mirrors Linux's switch_mm_irqs_off: pick one of the 6
    dynamic ASIDs, flush it if it is recycled from another address space,
    write CR3, and — if the address space changed PTEs while it was away —
    catch up via the generation check. Lazy mode models kernel threads that
    keep the previous mm loaded; shootdown initiators skip lazy CPUs, so a
    CPU leaving lazy mode must re-check generations before touching user
    mappings. *)

(** Load [mm] on [cpu]. Updates cpumasks, ASID bookkeeping and pays the CR3
    switch. *)
val switch_mm : Machine.t -> cpu:int -> Mm_struct.t -> unit

(** Unload the current mm (thread exit): clears the cpumask bit. *)
val unload : Machine.t -> cpu:int -> unit

(** Enter lazy-TLB mode (a kernel thread is now running on [cpu] with the
    user mm still loaded). *)
val enter_lazy : Machine.t -> cpu:int -> unit
[@@tlblint.allow "R5 paper entry point: lazy-TLB mode, pinned by tests"]

(** Leave lazy mode and synchronize with any generations missed while
    shootdowns skipped this CPU. *)
val exit_lazy : Machine.t -> cpu:int -> unit
[@@tlblint.allow "R5 paper entry point: lazy-TLB mode, pinned by tests"]
