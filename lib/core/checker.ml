type violation = {
  v_time : int;
  v_cpu : int;
  v_mm : int;
  v_vpn : int;
  v_detail : string;
}

type token = int

type result = [ `Clean | `Benign of string | `Violation of string ]

type t = {
  mutable on : bool;
  windows : (int, Flush_info.t) Hashtbl.t; (* token -> info *)
  by_mm : (int, (int, Flush_info.t) Hashtbl.t) Hashtbl.t; (* mm_id -> token -> info *)
  mutable next_token : int;
  mutable viols : violation list;
  mutable n_viols : int;
  mutable benign : int;
  mutable n_checks : int;
  max_recorded : int;
}

let default_max_recorded_violations = 1000

let create ?(enabled = true) ?(max_recorded = default_max_recorded_violations) () =
  {
    on = enabled;
    windows = Hashtbl.create 16;
    by_mm = Hashtbl.create 16;
    next_token = 0;
    viols = [];
    n_viols = 0;
    benign = 0;
    n_checks = 0;
    max_recorded;
  }

let token_id token = token

let begin_invalidation t (info : Flush_info.t) =
  t.next_token <- t.next_token + 1;
  if t.on then begin
    Hashtbl.replace t.windows t.next_token info;
    let per_mm =
      match Hashtbl.find_opt t.by_mm info.Flush_info.mm_id with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 4 in
          Hashtbl.replace t.by_mm info.Flush_info.mm_id tbl;
          tbl
    in
    Hashtbl.replace per_mm t.next_token info
  end;
  t.next_token

let end_invalidation t token =
  match Hashtbl.find_opt t.windows token with
  | None -> ()
  | Some info ->
      Hashtbl.remove t.windows token;
      (match Hashtbl.find_opt t.by_mm info.Flush_info.mm_id with
      | None -> ()
      | Some per_mm ->
          Hashtbl.remove per_mm token;
          if Hashtbl.length per_mm = 0 then Hashtbl.remove t.by_mm info.Flush_info.mm_id)

exception Covering_window

(* The hot check_hit path calls this on every stale hit: O(1) out when no
   window is open anywhere, then look only at the mm's own windows and stop
   at the first match instead of folding over everything in flight. *)
(* tlblint R2 suppressed: pure existence check — the iteration raises on the
   first covering window and returns a bool, so hash order cannot leak. *)
let[@tlblint.allow "R2"] covered t ~mm_id ~vpn =
  Hashtbl.length t.by_mm > 0
  &&
  match Hashtbl.find_opt t.by_mm mm_id with
  | None -> false
  | Some per_mm -> (
      try
        Hashtbl.iter
          (fun _ info -> if Flush_info.covers info ~vpn then raise_notrace Covering_window)
          per_mm;
        false
      with Covering_window -> true)

let record t v =
  t.n_viols <- t.n_viols + 1;
  if t.n_viols <= t.max_recorded then t.viols <- v :: t.viols

(* Width of the mm-id field in an entry's validation stamp. *)
let mm_bits = 20
let mm_limit = 1 lsl mm_bits

let check_hit t ~now ~cpu ~mm_id ~vpn ~write ~entry ~pt =
  if not t.on then `Clean
  else begin
    t.n_checks <- t.n_checks + 1;
    (* Fast path: the entry was validated clean against this exact
       page-table version for this mm, and nothing changed since (every
       mutation bumps the version) — skip the software walk entirely. The
       stamp packs (version, mm_id) so an entry revalidated under a
       recycled ASID slot, or against a different mm's table at the same
       version, can never false-match. *)
    let stamp =
      if mm_id < mm_limit then (Page_table.version pt lsl mm_bits) lor mm_id else -1
    in
    if stamp >= 0 && entry.Tlb.ck_ver = stamp then `Clean
    else begin
      match Page_table.walk pt ~vpn with
      | None ->
          let reason = "translation removed from page table" in
          if covered t ~mm_id ~vpn then begin
            t.benign <- t.benign + 1;
            `Benign reason
          end
          else begin
            record t
              { v_time = now; v_cpu = cpu; v_mm = mm_id; v_vpn = vpn; v_detail = reason };
            `Violation reason
          end
      | Some (w : Page_table.walk) ->
          let walk_base =
            match w.size with Tlb.Four_k -> vpn | Tlb.Two_m -> vpn land lnot 511
          in
          let walk_pfn = w.pte.Pte.pfn + (vpn - walk_base) in
          let entry_pfn = entry.Tlb.pfn + (vpn - entry.Tlb.vpn) in
          let stale_reason =
            if entry_pfn <> walk_pfn then Some "page remapped to a different frame"
            else if write && entry.Tlb.writable && not w.pte.Pte.writable then
              Some "write through a since-write-protected mapping"
            else None
          in
          (match stale_reason with
          | None ->
              (* Stamp only when a future hit of either kind would also be
                 clean at this version: a writable entry over a
                 write-protected PTE is clean for reads but must keep
                 walking so a later write still gets flagged. *)
              if stamp >= 0 && ((not entry.Tlb.writable) || w.pte.Pte.writable) then
                entry.Tlb.ck_ver <- stamp;
              `Clean
          | Some reason ->
              if covered t ~mm_id ~vpn then begin
                t.benign <- t.benign + 1;
                `Benign reason
              end
              else begin
                record t
                  {
                    v_time = now;
                    v_cpu = cpu;
                    v_mm = mm_id;
                    v_vpn = vpn;
                    v_detail = reason;
                  };
                `Violation reason
              end)
    end
  end

let violations t = List.rev t.viols
let violation_count t = t.n_viols
let benign_races t = t.benign
let checks t = t.n_checks
let open_windows t = Hashtbl.length t.windows

(* Window entries across the whole per-mm index; must equal [open_windows]
   at all times or the index leaks (regression: window-lifecycle tests). *)
(* tlblint R2 suppressed: commutative integer sum — order-independent. *)
let[@tlblint.allow "R2"] by_mm_entries t =
  Hashtbl.fold (fun _ per_mm acc -> acc + Hashtbl.length per_mm) t.by_mm 0

let max_recorded t = t.max_recorded

let pp_violation fmt v =
  Format.fprintf fmt "t=%d cpu%d mm%d vpn=%d: %s" v.v_time v.v_cpu v.v_mm v.v_vpn v.v_detail
