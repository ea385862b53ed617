(* The shootdown-protocol backend interface. One instance per machine,
   built by Shootdown from the Opts.protocol constructor (proto_paper /
   proto_oracle / proto_sync / proto_queue); its hooks close over the
   machine and any state the backend keeps, and everything
   protocol-specific flows through them. *)

type t = {
  reference : bool;
      (* the differential reference (the oracle): requests are always full,
         a local full flush invalidates the user PCID on the spot, and the
         lazy strawman fault does not apply *)
  perform : from:int -> mm:Mm_struct.t -> Flush_info.t -> bool;
      (* one complete shootdown for an info whose generation is already
         bumped; true when it sent IPIs. Shootdown counts it and closes
         its checker window. *)
  responder_pending : cpu:int -> bool;
      (* ack-tracking hook: does this CPU have outstanding responder work
         (posted but unexecuted flushes)? Feeds nmi_uaccess_okay. *)
  quiescent : cpu:int -> (string -> unit) -> unit;
      (* invariant hook: report (via the callback) any backend state that
         should not survive quiescence; Kernel.check_quiescent drives it *)
}

let unset =
  {
    reference = false;
    perform = (fun ~from:_ ~mm:_ _ -> invalid_arg "Protocol.unset");
    responder_pending = (fun ~cpu:_ -> false);
    quiescent = (fun ~cpu:_ _ -> ());
  }
