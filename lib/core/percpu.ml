type asid_slot = {
  mutable slot_mm : int;
  mutable gen_seen : int;
  mutable last_used : int;
}

type cfd = {
  cfd_seq : int;
  cfd_initiator : int;
  cfd_target : int;
  cfd_info : Flush_info.t;
  cfd_early_ack : bool;
  mutable cfd_acked : bool;
  mutable cfd_executed : bool;
  cfd_line : Cache.line;
  cfd_info_line : Cache.line option;
}

type pending_user = No_flush | Ranged of Flush_info.t | Full_flush

(* Stands in for the request of a drain run between requests; never
   written. *)
let no_cfd =
  {
    cfd_seq = -1;
    cfd_initiator = -1;
    cfd_target = -1;
    cfd_info = Flush_info.full ~mm_id:(-1) ~new_tlb_gen:0 ();
    cfd_early_ack = false;
    cfd_acked = false;
    cfd_executed = false;
    cfd_line = Cache.create_line (Cache.create_registry (Topology.flat 1) Costs.default);
    cfd_info_line = None;
  }

type user_flush = Eager | Defer | Skip

(* A flush between the boundaries of its charge run (Flush_core's steps).
   A CPU keeps one for its IRQ handlers, which run one at a time, and one
   for its processes; both are built at the CPU's first flush. *)
type flush = {
  mutable fl_info : Flush_info.t;
  mutable fl_user : user_flush;
  mutable fl_mm : Mm_struct.t option; (* the loaded mm's own [Some] cell *)
  mutable fl_slot : asid_slot;
  mutable fl_latest : int; (* the mm generation read at the decision *)
  mutable fl_asid : int; (* the slot whose PCIDs a ranged flush walks *)
  mutable fl_step : int;
  mutable fl_i : int; (* next INVLPG/INVPCID item of a ranged flush *)
  mutable fl_n : int;
  mutable fl_result : [ `Skipped | `Full | `Ranged ];
  mutable fl_t0 : int;
  mutable fl_busy : bool;
  mutable fl_visit : int -> int -> int;
}

let no_visit (_ : int) (_ : int) = -1

let new_flush () =
  {
    fl_info = Flush_info.full ~mm_id:(-1) ~new_tlb_gen:0 ();
    fl_user = Eager;
    fl_mm = None;
    fl_slot = { slot_mm = -1; gen_seen = 0; last_used = 0 };
    fl_latest = 0;
    fl_asid = 0;
    fl_step = 0;
    fl_i = 0;
    fl_n = 0;
    fl_result = `Skipped;
    fl_t0 = 0;
    fl_busy = false;
    fl_visit = no_visit;
  }

(* Stands in for a CPU's flush records until its first flush; never
   written. *)
let no_flush = new_flush ()

(* The return-to-user tail Flush_core.shootdown_irq appends to a CPU's
   IRQ handler. Built at the CPU's first shootdown IRQ, so a CPU that
   never takes one pays one word. *)
type irq_run = {
  mutable tail : int; (* the handler phase the tail began at, or -1 *)
  mutable tail_info : Flush_info.t; (* the tail's ranged deferred flush ... *)
  mutable tail_pcid : int; (* ... the user PCID it invalidates ... *)
  mutable tail_t0 : int; (* ... and when it began *)
}

let new_irq_run () =
  {
    tail = -1;
    tail_info = Flush_info.full ~mm_id:(-1) ~new_tlb_gen:0 ();
    tail_pcid = 0;
    tail_t0 = 0;
  }

let no_irq_run = new_irq_run ()

(* Queue_spin ring capacity. Charmos-style: small and bounded — overflow is
   expected under bursts and collapses to a flush-all rather than blocking
   the initiator. *)
let queue_slots = 8

(* Queue_spin's per-CPU state: the ring of posted invalidations and its
   line, the responder's place in its drain run, and the initiator's ack
   wait. Built at the CPU's first use of the backend, so machines that run
   another backend do not pay for it on every CPU. *)
type queue_state = {
  q_mm : int array; (* bounded ring of posted invalidations: mm ids ... *)
  q_vpn : int array; (* ... vpns ... *)
  q_from : int array; (* ... and posting initiators, for distance attribution *)
  mutable q_head : int; (* ring cursors, monotone; slot = cursor mod size *)
  mutable q_tail : int;
  mutable q_flush_all : bool;
      (* overflow collapse: the ring filled, so the next drain does one
         whole-TLB flush instead of replaying entries *)
  mutable q_target_gen : int; (* newest queue generation posted to us *)
  mutable q_ack_gen : int; (* queue generation we have drained up to *)
  line_queue : Cache.line; (* the ring's shared cache line *)
  mutable q_step : int; (* what the responder's run does next *)
  mutable q_base : int; (* the run phase the entry in hand began at *)
  mutable q_mm_id : int; (* the entry in hand: mm, vpn, initiator *)
  mutable q_at_vpn : int;
  mutable q_by : int;
  mutable q_hit : bool; (* the ASID slot in hand caches the entry's mm *)
  mutable q_t0 : int; (* when the entry or flush-all in hand began *)
  scratch_resend : Cpuset.t;
      (* retry-ladder resend scratch: rebuilt as the un-acked subset of
         scratch_targets at each resend, while scratch_targets still holds
         the full set the ack wait checks. *)
  mutable q_wait_gen : int; (* the generation every target must reach *)
  mutable q_ready : unit -> bool; (* the ack wait's poll predicate *)
}

let no_ready () = true

let new_queue_state registry =
  {
    q_mm = Array.make queue_slots (-1);
    q_vpn = Array.make queue_slots 0;
    q_from = Array.make queue_slots 0;
    q_head = 0;
    q_tail = 0;
    q_flush_all = false;
    q_target_gen = 0;
    q_ack_gen = 0;
    line_queue = Cache.create_line registry;
    q_step = 0;
    q_base = 0;
    q_mm_id = -1;
    q_at_vpn = 0;
    q_by = 0;
    q_hit = false;
    q_t0 = 0;
    scratch_resend = Cpuset.create ~bits:0;
    q_wait_gen = 0;
    q_ready = no_ready;
  }

(* A CPU that never used the backend: an empty ring, nothing posted or
   pending. Never written. *)
let no_queue_state =
  new_queue_state (Cache.create_registry (Topology.flat 1) Costs.default)

(* Monomorphic test used wherever a [pending_user = No_flush] compare would
   drag in the polymorphic-equality runtime (tlblint R1). *)
let no_pending_user = function No_flush -> true | Ranged _ | Full_flush -> false

type t = {
  cpu : Cpu.t;
  registry : Cache.registry; (* for lazily creating CSD lines below *)
  asids : asid_slot array;
  mutable curr_asid : int;
  mutable loaded_mm : Mm_struct.t option;
  mutable lazy_mode : bool;
  mutable pending_user : pending_user;
  mutable inflight_flush : bool;
  mutable batched_mode : bool;
  mutable batch : (Flush_info.t * Checker.token) list;
  mutable batch_overflowed : bool;
  csq : cfd Queue.t;
  mutable csd_cur : cfd; (* the request the drain run is on, or [no_cfd] *)
  mutable csd_base : int; (* the run phase of [csd_cur]'s CSD read *)
  mutable csd_acking : bool; (* an ack write of [csd_cur] is in flight *)
  mutable csd_queued : int; (* CFDs queued here, and ... *)
  mutable csd_released : int; (* ... those executed and acked here *)
  mutable irq_flush : flush;
  mutable task_flush : flush;
  mutable irq_run : irq_run; (* [no_irq_run] before the first shootdown IRQ *)
  line_tlb : Cache.line;
  line_csq : Cache.line;
  mutable csd_lines : Cache.line option array;
      (* indexed by destination, created on first shootdown to it via
         [csd_line], and the array itself grown by doubling to cover the
         highest destination shot down: a workload only ever touches the
         (initiator, responder) pairs it shoots down, while n_cpus^2 lines,
         or even slots, would dominate machine construction at 1024
         CPUs. *)
  line_stack_info : Cache.line;
  scratch_targets : Cpuset.t;
      (* per-initiator shootdown target scratch. Safe to reuse per
         shootdown without allocation: a CPU runs one initiator at a time
         (no preemption of a syscall mid-protocol), and nothing that runs
         from this CPU's IRQ handlers selects targets. *)
  (* --- Sync_broadcast backend (cronus-style) --- *)
  mutable sync_done : bool;
      (* this CPU's entry in the protocol-wide status table: set by the
         responder once it has applied the posted flush, cleared by the
         initiator (under the global lock) before broadcasting. *)
  (* --- Queue_spin backend (charmos-style) --- *)
  mutable q_state : queue_state;  (* [no_queue_state] before first use *)
}

let n_asids = 6

let create cpu registry =
  {
    cpu;
    registry;
    asids = Array.init n_asids (fun _ -> { slot_mm = -1; gen_seen = 0; last_used = 0 });
    curr_asid = 0;
    loaded_mm = None;
    lazy_mode = false;
    pending_user = No_flush;
    inflight_flush = false;
    batched_mode = false;
    batch = [];
    batch_overflowed = false;
    csq = Queue.create ();
    csd_cur = no_cfd;
    csd_base = 0;
    csd_acking = false;
    csd_queued = 0;
    csd_released = 0;
    irq_flush = no_flush;
    task_flush = no_flush;
    irq_run = no_irq_run;
    line_tlb = Cache.create_line registry;
    line_csq = Cache.create_line registry;
    csd_lines = [||];
    line_stack_info = Cache.create_line registry;
    scratch_targets = Cpuset.create ~bits:0;
    sync_done = true;
    q_state = no_queue_state;
  }

let csd_line t ~target =
  let n = Array.length t.csd_lines in
  if target >= n then begin
    let bigger = Array.make (Stdlib.max (target + 1) (2 * n)) None in
    Array.blit t.csd_lines 0 bigger 0 n;
    t.csd_lines <- bigger
  end;
  match t.csd_lines.(target) with
  | Some l -> l
  | None ->
      let l = Cache.create_line t.registry in
      t.csd_lines.(target) <- Some l;
      l

let kernel_pcid slot = slot + 1
let user_pcid slot = slot + 1 + 2048

let current_kernel_pcid t = kernel_pcid t.curr_asid

let find_slot t ~mm_id =
  let found = ref None in
  Array.iteri
    (fun i slot -> if slot.slot_mm = mm_id && Option.is_none !found then found := Some i)
    t.asids;
  !found

let choose_slot t ~mm_id ~now =
  match find_slot t ~mm_id with
  | Some i ->
      t.asids.(i).last_used <- now;
      (i, false)
  | None ->
      let best = ref 0 in
      Array.iteri
        (fun i slot ->
          if slot.slot_mm = -1 && t.asids.(!best).slot_mm <> -1 then best := i
          else if
            slot.slot_mm <> -1
            && t.asids.(!best).slot_mm <> -1
            && slot.last_used < t.asids.(!best).last_used
          then best := i)
        t.asids;
      let i = !best in
      let needs_flush = t.asids.(i).slot_mm <> -1 in
      t.asids.(i).slot_mm <- mm_id;
      t.asids.(i).gen_seen <- 0;
      t.asids.(i).last_used <- now;
      (i, needs_flush)

let defer_user_flush t info ~threshold =
  match t.pending_user with
  | Full_flush -> ()
  | No_flush ->
      if Flush_info.nr_entries info > threshold then t.pending_user <- Full_flush
      else t.pending_user <- Ranged info
  | Ranged existing ->
      if existing.Flush_info.mm_id <> info.Flush_info.mm_id then
        (* A different address space is pending: punt to a full flush. *)
        t.pending_user <- Full_flush
      else begin
        let merged = Flush_info.merge existing info in
        if Flush_info.nr_entries merged > threshold then t.pending_user <- Full_flush
        else t.pending_user <- Ranged merged
      end

let take_pending_user t =
  let p = t.pending_user in
  t.pending_user <- No_flush;
  p
