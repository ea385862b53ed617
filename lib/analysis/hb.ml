(* Vector-clock happens-before analysis over a typed protocol trace.

   Events are ordered by per-CPU program order plus three cross-CPU edge
   kinds, each corresponding to a real synchronization mechanism:

   - Ipi_send -> Ipi_begin (IPI delivery),
   - Ipi_ack -> Acks_seen (the initiator's ack spin observing the CSD line),
   - Gen_bump -> Gen_read of a generation >= the bump (the mm's tlb_gen
     cacheline transferring from the bumper to the reader).

   A stale TLB hit is then judged against the invalidation windows the
   checker opened: the hit is a *proved* benign in-flight race only when the
   window's close does not happen-before it — and, for the hit CPU itself,
   only while that CPU has not yet completed a return-to-user after handling
   the window's IPI (the paper's §3.4 contract: deferred user-PCID flushes
   must not survive return_to_user). A hit ordered after the covering flush
   is a genuine protocol race; the chain of events proving the ordering is
   attached to the finding. *)

type verdict = Proved_in_flight | Unordered_latent | Genuine

type finding = {
  f_index : int;
  f_time : int;
  f_cpu : int;
  f_mm : int;
  f_vpn : int;
  f_verdict : verdict;
  f_detail : string;
  f_chain : (int * Trace.record) list;
}

type report = {
  events : int;
  stale_hits : int;
  proved_in_flight : int;
  unordered_latent : int;
  genuine : int;
  checker_disagreements : int;
  findings : finding list;
}

type window = {
  w_id : int;
  w_mm : int;
  w_start : int;
  w_span : int;
  w_full : bool;
  w_opener : int;
  w_open_idx : int;
  mutable w_close_idx : int option;
  mutable w_close_vc : int array option;
  mutable w_seqs : int list; (* IPIs sent inside this window, newest first *)
  w_handled : (int, int) Hashtbl.t; (* responder cpu -> Ipi_begin index *)
}

let covers w ~mm ~vpn = w.w_mm = mm && (w.w_full || (vpn >= w.w_start && vpn < w.w_start + w.w_span))

let vc_leq (a : int array) (b : int array) =
  let ok = ref true in
  Array.iteri (fun i v -> if v > b.(i) then ok := false) a;
  !ok

let max_findings = 32

let analyze_array records =
  let n = Array.length records in
  let n_cpus =
    Array.fold_left (fun acc (r : Trace.record) -> Stdlib.max acc (r.Trace.cpu + 1)) 1 records
  in
  let clocks = Array.init n_cpus (fun _ -> Array.make n_cpus 0) in
  let stamps = Array.make n [||] in
  let send_vc = Hashtbl.create 64 in
  let ack_vc = Hashtbl.create 64 in
  let send_idx = Hashtbl.create 64 in
  let begin_idx = Hashtbl.create 64 in
  let ack_idx = Hashtbl.create 64 in
  let bumps : (int, (int * int array) list ref) Hashtbl.t = Hashtbl.create 8 in
  let open_windows : (int, window) Hashtbl.t = Hashtbl.create 32 in
  let all_windows = ref [] in
  let resumes = Array.make n_cpus [] in (* User_resume indices per cpu, newest first *)
  let hits = ref [] in
  let join (dst : int array) (src : int array) =
    Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src
  in
  for i = 0 to n - 1 do
    let r = records.(i) in
    let c = r.Trace.cpu in
    if c >= 0 then begin
      let clk = clocks.(c) in
      (match r.Trace.event with
      | Trace.Ipi_begin { seq; _ } -> (
          match Hashtbl.find_opt send_vc seq with Some s -> join clk s | None -> ())
      | Trace.Acks_seen { seqs } ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt ack_vc s with Some a -> join clk a | None -> ())
            seqs
      | Trace.Gen_read { mm_id; gen } -> (
          match Hashtbl.find_opt bumps mm_id with
          | Some l -> List.iter (fun (g, s) -> if g <= gen then join clk s) !l
          | None -> ())
      | _ -> ());
      clk.(c) <- clk.(c) + 1;
      let stamp = Array.copy clk in
      stamps.(i) <- stamp;
      match r.Trace.event with
      | Trace.Ipi_send { seq; _ } ->
          Hashtbl.replace send_vc seq stamp;
          Hashtbl.replace send_idx seq i;
          (* The send belongs to every window its initiator currently holds
             open (the syscall's outer window and the flush's own). *)
          (* tlblint R2 suppressed: each window is updated independently and
             at most once per event, so per-window [w_seqs] order is event
             order — hash order never reaches the analysis. *)
          (Hashtbl.iter
             (fun _ w -> if w.w_opener = c then w.w_seqs <- seq :: w.w_seqs)
             open_windows [@tlblint.allow "R2"])
      | Trace.Ipi_begin { seq; _ } ->
          Hashtbl.replace begin_idx seq i;
          (* tlblint R2 suppressed: keyed per-window/per-cpu first-write-wins
             update — independent across windows, so order cannot leak. *)
          (Hashtbl.iter
             (fun _ w ->
               if List.mem seq w.w_seqs && not (Hashtbl.mem w.w_handled c) then
                 Hashtbl.replace w.w_handled c i)
             open_windows [@tlblint.allow "R2"])
      | Trace.Ipi_ack { seq; _ } ->
          Hashtbl.replace ack_vc seq stamp;
          Hashtbl.replace ack_idx seq i
      | Trace.Gen_bump { mm_id; gen } ->
          let l =
            match Hashtbl.find_opt bumps mm_id with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace bumps mm_id l;
                l
          in
          l := (gen, stamp) :: !l
      | Trace.Flush_start { window; mm_id; start_vpn; span; full } ->
          let w =
            {
              w_id = window;
              w_mm = mm_id;
              w_start = start_vpn;
              w_span = span;
              w_full = full;
              w_opener = c;
              w_open_idx = i;
              w_close_idx = None;
              w_close_vc = None;
              w_seqs = [];
              w_handled = Hashtbl.create 4;
            }
          in
          Hashtbl.replace open_windows window w;
          all_windows := w :: !all_windows
      | Trace.Flush_done { window; _ } -> (
          match Hashtbl.find_opt open_windows window with
          | Some w ->
              w.w_close_idx <- Some i;
              w.w_close_vc <- Some stamp;
              Hashtbl.remove open_windows window
          | None -> ())
      | Trace.User_resume -> resumes.(c) <- i :: resumes.(c)
      | Trace.Stale_hit { mm_id; vpn; benign; detail } ->
          hits := (i, c, mm_id, vpn, benign, detail) :: !hits
      | _ -> ()
    end
  done;
  let windows = List.rev !all_windows in
  let resumed_between ~cpu ~lo ~hi =
    List.exists (fun idx -> idx > lo && idx < hi) resumes.(cpu)
  in
  (* Does window [w] prove hit [i] on [cpu] is still in flight? *)
  (* A window excuses a hit only when the hit provably lands inside it:
     the window opened first and the hit happens-before the window's close
     (through the hit CPU's later ack feeding the initiator's
     all-acks-seen). A close merely *concurrent* with the hit proves
     nothing — an initiator that never synchronizes with the hit CPU at
     all (the LATR strawman) must not excuse its stale hits forever. *)
  let excuses w ~i ~cpu ~stamp =
    w.w_open_idx < i
    && (match w.w_close_vc with None -> true | Some cvc -> vc_leq stamp cvc)
    &&
    match Hashtbl.find_opt w.w_handled cpu with
    | None -> true
    | Some h -> not (resumed_between ~cpu ~lo:h ~hi:i)
  in
  let chain_of w ~i =
    let idxs = ref [ w.w_open_idx; i ] in
    let add idx = if not (List.mem idx !idxs) then idxs := idx :: !idxs in
    (* Last PTE write to this range before the hit. *)
    (match records.(i).Trace.event with
    | Trace.Stale_hit { mm_id; vpn; _ } ->
        let best = ref None in
        for j = 0 to i - 1 do
          match records.(j).Trace.event with
          | Trace.Pte_write { mm_id = m'; vpn = v'; pages } ->
              if m' = mm_id && vpn >= v' && vpn < v' + pages then best := Some j
          | _ -> ()
        done;
        Option.iter add !best
    | _ -> ());
    List.iter
      (fun seq ->
        Option.iter add (Hashtbl.find_opt send_idx seq);
        Option.iter add (Hashtbl.find_opt begin_idx seq);
        Option.iter add (Hashtbl.find_opt ack_idx seq))
      w.w_seqs;
    (* The initiator's ack observation inside the window. *)
    let close_bound = match w.w_close_idx with Some d -> d | None -> i in
    for j = w.w_open_idx to Stdlib.min close_bound (n - 1) do
      match records.(j).Trace.event with
      | Trace.Acks_seen _ when records.(j).Trace.cpu = w.w_opener -> add j
      | _ -> ()
    done;
    Option.iter add w.w_close_idx;
    (* The return-to-user that expired the in-flight excuse, if any. *)
    let cpu = records.(i).Trace.cpu in
    (match Hashtbl.find_opt w.w_handled cpu with
    | Some h -> (
        add h;
        match List.rev (List.filter (fun idx -> idx > h && idx < i) resumes.(cpu)) with
        | idx :: _ -> add idx
        | [] -> ())
    | None -> ());
    List.map (fun idx -> (idx, records.(idx))) (List.sort_uniq Int.compare !idxs)
  in
  let proved = ref 0 and latent = ref 0 and genuine = ref 0 and disagree = ref 0 in
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (i, cpu, mm, vpn, benign, detail) ->
      let covering = List.filter (fun w -> covers w ~mm ~vpn && w.w_open_idx < i) windows in
      let excused = List.exists (fun w -> excuses w ~i ~cpu ~stamp:stamps.(i)) covering in
      let verdict =
        if excused then Proved_in_flight
        else if benign then Unordered_latent
        else Genuine
      in
      (match verdict with
      | Proved_in_flight -> incr proved
      | Unordered_latent -> incr latent
      | Genuine -> incr genuine);
      if excused <> benign then incr disagree;
      let key = (mm, vpn, cpu, verdict) in
      if (not (Hashtbl.mem seen key)) && Hashtbl.length seen < max_findings then begin
        Hashtbl.replace seen key ();
        (* For the chain prefer a closed covering window: it exhibits the
           completed flush the hit should have been ordered after. *)
        let w =
          let closed = List.filter (fun w -> Option.is_some w.w_close_idx) covering in
          match (List.rev closed, List.rev covering) with
          | w :: _, _ -> Some w
          | [], w :: _ -> Some w
          | [], [] -> None
        in
        let chain = match w with Some w -> chain_of w ~i | None -> [ (i, records.(i)) ] in
        findings :=
          {
            f_index = i;
            f_time = records.(i).Trace.time;
            f_cpu = cpu;
            f_mm = mm;
            f_vpn = vpn;
            f_verdict = verdict;
            f_detail = detail;
            f_chain = chain;
          }
          :: !findings
      end)
    (List.rev !hits);
  {
    events = n;
    stale_hits = List.length !hits;
    proved_in_flight = !proved;
    unordered_latent = !latent;
    genuine = !genuine;
    checker_disagreements = !disagree;
    findings = List.rev !findings;
  }

(* Only the typed events are numbered: free-form [Msg] lines are not part
   of happens-before, so adding or moving one renumbers nothing. *)
let analyze_trace trace =
  let typed = ref [] in
  Trace.iter trace (fun r ->
      match r.Trace.event with Trace.Msg _ -> () | _ -> typed := r :: !typed);
  analyze_array (Array.of_list (List.rev !typed))

let verdict_name = function
  | Proved_in_flight -> "benign (proved in-flight)"
  | Unordered_latent -> "benign (in-flight window, unordered)"
  | Genuine -> "GENUINE RACE"

let pp_finding fmt f =
  Format.fprintf fmt "%s: cpu%d mm%d vpn %d at t=%d — %s@." (verdict_name f.f_verdict)
    f.f_cpu f.f_mm f.f_vpn f.f_time f.f_detail;
  Format.fprintf fmt "  happens-before chain:@.";
  List.iter
    (fun (idx, (r : Trace.record)) ->
      Format.fprintf fmt "    [%5d] t=%-8d %-6s %a@." idx r.Trace.time r.Trace.actor
        Trace.pp_event r.Trace.event)
    f.f_chain

let pp_report fmt r =
  Format.fprintf fmt
    "analyzed %d events: %d stale hit(s) — %d proved in-flight, %d unordered-latent, %d \
     genuine; %d checker disagreement(s)@."
    r.events r.stale_hits r.proved_in_flight r.unordered_latent r.genuine
    r.checker_disagreements;
  List.iter (fun f -> pp_finding fmt f) r.findings
