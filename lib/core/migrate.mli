(** Page migration: move a live page to a new physical frame, the way NUMA
    balancing / memory compaction do (paper §2.1 lists both as TLB flush
    sources; §2.3.2's footnote shows LATR's migration path racing exactly
    here).

    The protocol per page: allocate the destination frame, write-protect
    the PTE and shoot it down (writers must fault and wait), copy, install
    the new frame writable, shoot down again, free the old frame. The
    checker's frame-remap detection makes any missing flush in this
    sequence fatal, which is what the tests exercise. *)

(** Migrate every present page in \[vpn, vpn+pages) to a fresh frame;
    returns the number migrated. A page is skipped when it has no present
    anonymous mapping, or when the migration raced. Takes mmap_sem for
    write. *)
val migrate_range : Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> pages:int -> int
