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
  (* The open windows, unordered, in slots [0, n_open): slot [i] holds its
     token, mm id, first vpn and end vpn at [w_stride * i] of [wins]. Few
     windows are open at once, so one flat int array with linear scans
     beats a hashtable, and closing one moves the last slot into its
     place. *)
  mutable wins : int array;
  mutable n_open : int;
  mutable next_token : int;
  mutable viols : violation list;
  mutable n_viols : int;
  mutable benign : int;
  mutable n_checks : int;
  max_recorded : int;
}

let w_stride = 4
let w_token = 0
let w_mm = 1
let w_first = 2
let w_end = 3
let full_end = max_int

let default_max_recorded_violations = 1000

let create ?(max_recorded = default_max_recorded_violations) () =
  {
    wins = [||];
    n_open = 0;
    next_token = 0;
    viols = [];
    n_viols = 0;
    benign = 0;
    n_checks = 0;
    max_recorded;
  }

let token_id token = token

let grow t =
  let wins = Array.make (w_stride * max 8 (2 * t.n_open)) 0 in
  Array.blit t.wins 0 wins 0 (w_stride * t.n_open);
  t.wins <- wins

let begin_invalidation t ~mm_id ~first_vpn ~end_vpn =
  t.next_token <- t.next_token + 1;
  let o = w_stride * t.n_open in
  if o = Array.length t.wins then grow t;
  let w = t.wins in
  w.(o + w_token) <- t.next_token;
  w.(o + w_mm) <- mm_id;
  w.(o + w_first) <- first_vpn;
  w.(o + w_end) <- end_vpn;
  t.n_open <- t.n_open + 1;
  t.next_token

let rec slot_of t token i =
  if i = t.n_open || t.wins.((w_stride * i) + w_token) = token then i
  else slot_of t token (i + 1)

let end_invalidation t token =
  let i = slot_of t token 0 in
  if i < t.n_open then begin
    let last = t.n_open - 1 in
    Array.blit t.wins (w_stride * last) t.wins (w_stride * i) w_stride;
    t.n_open <- last
  end

let rec covered_from t ~mm_id ~vpn o stop =
  o < stop
  && (let w = t.wins in
      (w.(o + w_mm) = mm_id && vpn >= w.(o + w_first) && vpn < w.(o + w_end))
      || covered_from t ~mm_id ~vpn (o + w_stride) stop)

(* The hot check_hit path calls this on every stale hit: out at once when
   no window is open, and otherwise stop at the first covering window. *)
let covered t ~mm_id ~vpn = covered_from t ~mm_id ~vpn 0 (w_stride * t.n_open)

let record t v =
  t.n_viols <- t.n_viols + 1;
  if t.n_viols <= t.max_recorded then t.viols <- v :: t.viols

(* Width of the mm-id field in an entry's validation stamp. *)
let mm_bits = 20
let mm_limit = 1 lsl mm_bits

let check_hit t ~now ~cpu ~mm_id ~vpn ~write ~entry ~pt =
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
    let pte = Page_table.walk pt ~vpn in
    if not (Pte.present pte) then begin
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
    end
    else begin
      let walk_base =
        match Pte.size pte with Tlb.Four_k -> vpn | Tlb.Two_m -> vpn land lnot 511
      in
      let walk_pfn = Pte.pfn pte + (vpn - walk_base) in
      let entry_pfn = entry.Tlb.pfn + (vpn - entry.Tlb.vpn) in
      let stale_reason =
        if entry_pfn <> walk_pfn then Some "page remapped to a different frame"
        else if write && entry.Tlb.writable && not (Pte.writable pte) then
          Some "write through a since-write-protected mapping"
        else None
      in
      match stale_reason with
      | None ->
          (* Stamp only when a future hit of either kind would also be
             clean at this version: a writable entry over a
             write-protected PTE is clean for reads but must keep
             walking so a later write still gets flagged. *)
          if stamp >= 0 && ((not entry.Tlb.writable) || Pte.writable pte) then
            entry.Tlb.ck_ver <- stamp;
          `Clean
      | Some reason ->
          if covered t ~mm_id ~vpn then begin
            t.benign <- t.benign + 1;
            `Benign reason
          end
          else begin
            record t
              { v_time = now; v_cpu = cpu; v_mm = mm_id; v_vpn = vpn; v_detail = reason };
            `Violation reason
          end
    end
  end

let violations t = List.rev t.viols
let violation_count t = t.n_viols
let benign_races t = t.benign
let checks t = t.n_checks
let open_windows t = t.n_open

let max_recorded t = t.max_recorded

let pp_violation fmt v =
  Format.fprintf fmt "t=%d cpu%d mm%d vpn=%d: %s" v.v_time v.v_cpu v.v_mm v.v_vpn v.v_detail
