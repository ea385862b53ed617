(* The shootdown-protocol backend interface. One value of [t] per
   Opts.protocol constructor (proto_paper / proto_oracle / proto_sync /
   proto_queue); Shootdown dispatches on the variant exactly once and
   everything protocol-specific flows through these hooks. *)

type t = {
  reference : bool;
      (* the differential reference (the oracle): requests are always full,
         a local full flush invalidates the user PCID on the spot, and the
         lazy strawman fault does not apply *)
  perform : Machine.t -> from:int -> mm:Mm_struct.t -> Flush_info.t -> bool;
      (* one complete shootdown for an info whose generation is already
         bumped; true when it sent IPIs. Shootdown counts it and closes
         its checker window. *)
  responder_pending : Machine.t -> cpu:int -> bool;
      (* ack-tracking hook: does this CPU have outstanding responder work
         (posted but unexecuted flushes)? Feeds nmi_uaccess_okay. *)
  quiescent : Machine.t -> cpu:int -> (string -> unit) -> unit;
      (* invariant hook: report (via the callback) any backend state that
         should not survive quiescence; Kernel.check_quiescent drives it *)
}

(* The Opts.protocol -> t dispatch lives in Shootdown (each backend module
   depends on this interface type, so the table cannot live here without a
   cycle). *)
