(** The paper's optimized Linux protocol backend (Figures 1/3): targeted
    IPIs over the mm cpumask with lazy/batched filtering, generation
    bookkeeping, and the Table-1 optimizations its {!Opts.paper} knobs switch on. *)

(** The backend instance for machine [m]. *)
val create : Machine.t -> Protocol.t

(** The backend's round. [~local_flush:true] is {!create}'s [perform];
    [~local_flush:false] is the §4.1 CoW round of
    {!Shootdown.flush_tlb_page_cow}, whose caller has replaced the
    initiator's local flush: target selection, the remote round and the
    ack wait, under [serialized] inside [ipi_mutex]. Returns whether it
    sent IPIs. *)
val round :
  Machine.t -> from:int -> mm:Mm_struct.t -> local_flush:bool -> Flush_info.t -> bool
