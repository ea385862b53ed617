(** Typed protocol-event tracing.

    When enabled, simulation components append timestamped records. Records
    carry a {!event} variant: the shootdown protocol emits typed events
    (generation bumps, IPIs, flushes, stale hits) that the analysis layer
    orders with vector clocks; free-form strings remain available through
    {!emitf} for human-oriented annotations. Disabled tracing is a
    no-op so experiment runs pay nothing.

    Storage is a growable circular buffer: append is O(1) and, when a
    [max_records] cap is set, the oldest records are dropped once the cap is
    reached (the drop count is reported by {!dropped}). *)

type event =
  | Msg of string  (** free-form annotation; not part of happens-before *)
  | Gen_bump of { mm_id : int; gen : int }
      (** initiator bumped the mm's TLB generation (atomic RMW) *)
  | Gen_read of { mm_id : int; gen : int }
      (** a CPU read the mm's generation (cacheline transfer from the bumper) *)
  | Pte_write of { mm_id : int; vpn : int; pages : int }
      (** page-table entries changed: translations may now be stale *)
  | Flush_start of { window : int; mm_id : int; start_vpn : int; span : int; full : bool }
      (** an invalidation window opened ([span] in 4 KiB pages) *)
  | Flush_done of { window : int; mm_id : int }
      (** the flush API returned to its caller: the window closed *)
  | Ipi_send of { seq : int; target : int }
  | Ipi_begin of { seq : int; initiator : int; early_ack : bool }
      (** responder started the IPI handler for one CFD *)
  | Ipi_ack of { seq : int; initiator : int; early : bool }
  | Acks_seen of { seqs : int list }  (** initiator observed every ack *)
  | Tlb_flush of { mm_id : int; full : bool; entries : int; gen : int }
      (** a local TLB flush executed (responder or initiator side) *)
  | Tlb_fill of { mm_id : int; vpn : int; pcid : int }
  | Stale_hit of { mm_id : int; vpn : int; benign : bool; detail : string }
      (** the checker observed a hit on a stale entry; [benign] is the
          checker's wall-clock classification *)
  | Deferred_flush_exec of { full : bool; entries : int }
      (** a deferred user-PCID flush (§3.4) executed at kernel exit *)
  | User_resume  (** return-to-user completed (deferred flushes done) *)

type record = { time : int; cpu : int; actor : string; event : event }
(** [cpu] is [-1] for records emitted via {!emitf} with a
    non-CPU actor; typed protocol events always carry their CPU. *)

type t

val create : ?enabled:bool -> ?max_records:int -> Engine.t -> t
val enable : t -> unit
val enabled : t -> bool

(** Cap the number of retained records ([None] = unbounded). Shrinks the
    buffer immediately if it already holds more. *)
val set_max_records : t -> int option -> unit

(** Append a free-form record (no-op when disabled, and then the arguments
    are not formatted). [actor] is typically "cpu3" or a process name. *)
val emitf : t -> actor:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Append a typed protocol event attributed to [cpu]. *)
val event : t -> cpu:int -> event -> unit

(** Apply [f] to every retained record, oldest first, without building a
    list. *)
val iter : t -> (record -> unit) -> unit

(** Records discarded because of the [max_records] cap. *)
val dropped : t -> int
[@@tlblint.allow "R5 state accessor: tests read the drop count through it"]

val clear : t -> unit

(** Render one event as the human-readable timeline text. *)
val pp_event : Format.formatter -> event -> unit

(** Render as an aligned "time | actor | event" listing. *)
val pp : Format.formatter -> t -> unit
