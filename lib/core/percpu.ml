type asid_slot = {
  mutable slot_mm : int;
  mutable gen_seen : int;
  mutable last_used : int;
}

type cfd = {
  mutable cfd_seq : int;
  cfd_initiator : int;
  cfd_target : int;
  mutable cfd_info : Flush_info.t;
  mutable cfd_early_ack : bool;
  mutable cfd_acked : bool;
  mutable cfd_executed : bool;
  mutable cfd_busy : bool; (* from its enqueue to its release *)
  mutable cfd_next : cfd; (* the next request on its call queue, or [no_cfd] *)
  cfd_line : Cache.line;
  cfd_info_line : Cache.line option;
}

type pending_user = No_flush | Ranged of Flush_info.t | Full_flush

(* Stands in for the request of a drain run between requests, for the
   end of a call queue and for a slot not yet used; never written. *)
let rec no_cfd =
  {
    cfd_seq = -1;
    cfd_initiator = -1;
    cfd_target = -1;
    cfd_info = Flush_info.full ~mm_id:(-1) ~freed_tables:false ~new_tlb_gen:0;
    cfd_early_ack = false;
    cfd_acked = false;
    cfd_executed = false;
    cfd_busy = false;
    cfd_next = no_cfd;
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

let new_flush () =
  {
    fl_info = Flush_info.full ~mm_id:(-1) ~freed_tables:false ~new_tlb_gen:0;
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
    fl_visit = Process.no_visit;
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
    tail_info = Flush_info.full ~mm_id:(-1) ~freed_tables:false ~new_tlb_gen:0;
    tail_pcid = 0;
    tail_t0 = 0;
  }

let no_irq_run = new_irq_run ()

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
  mutable csq_head : cfd; (* the call queue, oldest first, linked through *)
  mutable csq_tail : cfd; (* [cfd_next]; both [no_cfd] when it is empty *)
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
  mutable csds : cfd array;
      (* indexed by destination, [no_cfd] until the first shootdown to it
         ([claim_csd]) creates the slot and its CSD line, and the array
         itself grown by doubling to cover the highest destination shot
         down: a workload only ever touches the (initiator, responder)
         pairs it shoots down, while n_cpus^2 lines, or even slots, would
         dominate machine construction at 1024 CPUs. *)
  line_stack_info : Cache.line;
  mutable enqueue_visit : int -> int -> int;
      (* Smp.enqueue_work's charge-run visit, built at the first *)
  scratch_targets : Cpuset.t;
      (* per-initiator shootdown target scratch. Safe to reuse per
         shootdown without allocation: a CPU runs one initiator at a time
         (no preemption of a syscall mid-protocol), and nothing that runs
         from this CPU's IRQ handlers selects targets. *)
  mutable ack_targets : Cpuset.t;
  mutable ack_next : int;
  mutable ack_work : unit -> bool;
  mutable ack_ready : unit -> bool;
  mutable ack_visit : int -> int -> int;
      (* Smp.wait_for_acks's state and its two callbacks, built at the
         first wait: one wait per CPU at a time, as for [scratch_targets]. *)
}

let n_asids = 6

let never () = false

let create cpu registry =
  let scratch_targets = Cpuset.create ~bits:0 in
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
    csq_head = no_cfd;
    csq_tail = no_cfd;
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
    csds = [||];
    line_stack_info = Cache.create_line registry;
    enqueue_visit = Process.no_visit;
    scratch_targets;
    ack_targets = scratch_targets;
    ack_next = -1;
    ack_work = never;
    ack_ready = never;
    ack_visit = Process.no_visit;
  }

let new_cfd t ~target ~line ~info_line =
  {
    cfd_seq = -1;
    cfd_initiator = Cpu.id t.cpu;
    cfd_target = target;
    cfd_info = no_cfd.cfd_info;
    cfd_early_ack = false;
    cfd_acked = false;
    cfd_executed = false;
    cfd_busy = false;
    cfd_next = no_cfd;
    cfd_line = line;
    cfd_info_line = info_line;
  }

(* Linux's csd_lock_wait: a slot is reused once its responder released
   the request it last carried. A request still busy (acked early, its
   flush still running) keeps its record, and a fresh one, on the same
   line, takes the slot. *)
let claim_csd t ~target ~consolidated ~info ~early_ack =
  let n = Array.length t.csds in
  if target >= n then begin
    let bigger = Array.make (Stdlib.max (target + 1) (2 * n)) no_cfd in
    Array.blit t.csds 0 bigger 0 n;
    t.csds <- bigger
  end;
  let old = t.csds.(target) in
  let cfd =
    if old == no_cfd then
      new_cfd t ~target ~line:(Cache.create_line t.registry)
        ~info_line:(if consolidated then None else Some t.line_stack_info)
    else if old.cfd_busy then
      new_cfd t ~target ~line:old.cfd_line ~info_line:old.cfd_info_line
    else old
  in
  t.csds.(target) <- cfd;
  cfd.cfd_seq <- -1;
  cfd.cfd_info <- info;
  cfd.cfd_early_ack <- early_ack;
  cfd.cfd_acked <- false;
  cfd.cfd_executed <- false;
  cfd.cfd_busy <- true;
  cfd

let csq_is_empty t = t.csq_head == no_cfd

let csq_push t cfd =
  if t.csq_head == no_cfd then t.csq_head <- cfd else t.csq_tail.cfd_next <- cfd;
  t.csq_tail <- cfd

let csq_pop t =
  let cfd = t.csq_head in
  if cfd != no_cfd then begin
    t.csq_head <- cfd.cfd_next;
    if t.csq_head == no_cfd then t.csq_tail <- no_cfd;
    cfd.cfd_next <- no_cfd
  end;
  cfd

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
