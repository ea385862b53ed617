(** The shootdown-protocol backend interface (DESIGN.md §13).

    A backend is a per-machine instance: {!Shootdown} builds it at the
    machine's first use from the {!Opts.protocol} constructor —
    {!Proto_paper}, {!Proto_oracle}, {!Proto_sync} or {!Proto_queue} — and
    keeps it in [Machine.backend]. Its hooks close over the machine and
    over whatever state the backend owns, which no other module sees. They
    fall into the three groups the interface exists for:

    - {b perform}: the initiator side of one complete shootdown (each
      backend registers its own responder handler through
      {!Flush_core.shootdown_irq});
    - {b flush decisions}: [reference] marks the oracle, whose requests are
      always full and never deferred. Paper-only decisions (§4.1 CoW
      elision, §4.2 batching) need no flag here: their knobs exist only in
      the {!Opts.Paper} payload;
    - {b ack tracking}: [responder_pending] (outstanding responder work,
      for [nmi_uaccess_okay]) and [quiescent] (what must not survive
      quiescence, for the explorer's invariant pass). *)

type t = {
  reference : bool;
      (** the differential reference (the oracle): request construction
          never builds ranged infos, a local full flush invalidates the user
          PCID on the spot instead of deferring to return-to-user, and the
          [Lazy_strawman] fault does not apply *)
  perform : from:int -> mm:Mm_struct.t -> Flush_info.t -> bool;
      (** one complete shootdown for an info whose generation is already
          bumped: the initiator's local flush and, when some remote CPU
          needs one, the remote round. Returns whether it sent IPIs;
          {!Shootdown} counts the shootdown (or local-only flush) and
          closes the checker window *)
  responder_pending : cpu:int -> bool;
      (** does this CPU have outstanding responder work (posted but
          unexecuted flushes)? Feeds [nmi_uaccess_okay]. *)
  quiescent : cpu:int -> (string -> unit) -> unit;
      (** report (via the callback) any backend state that should not
          survive quiescence; [Kernel.check_quiescent] drives it *)
}

(** Stands in for a machine's backend until its first use; never
    performs. *)
val unset : t
