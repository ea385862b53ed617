(** KSM-style page deduplication (paper §2.1 lists memory deduplication as
    a TLB-flush source; the ESX work it cites built an industry on it).

    Content scanning is out of scope for the simulator — pages carry no
    data — so the API takes the scanner's verdict: every page of the swept
    range is asserted identical. The mechanics are the real ones:
    write-protect both PTEs and shoot them down (a write racing the merge
    must fault), point the duplicate's PTE at the survivor's frame
    (reference taken), release the duplicate frame. Later writes break COW
    per §4.1. *)

(** Sweep \[vpn, vpn+pages) merging every page into the first suitable one
    (as if all contents were identical); returns merges performed. A page
    is skipped when it or the survivor is unsuitable: unmapped,
    non-anonymous, hugepage, or already sharing the survivor's frame. *)
val dedup_range : Machine.t -> cpu:int -> mm:Mm_struct.t -> vpn:int -> pages:int -> int
