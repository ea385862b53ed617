(* Typed protocol events plus a free-form escape hatch. Records live in a
   growable circular buffer: append is O(1), and an optional [max_records]
   cap turns the buffer into a ring that drops the oldest records. *)

type event =
  | Msg of string
  | Gen_bump of { mm_id : int; gen : int }
  | Gen_read of { mm_id : int; gen : int }
  | Pte_write of { mm_id : int; vpn : int; pages : int }
  | Flush_start of { window : int; mm_id : int; start_vpn : int; span : int; full : bool }
  | Flush_done of { window : int; mm_id : int }
  | Ipi_send of { seq : int; target : int }
  | Ipi_begin of { seq : int; initiator : int; early_ack : bool }
  | Ipi_ack of { seq : int; initiator : int; early : bool }
  | Acks_seen of { seqs : int list }
  | Tlb_flush of { mm_id : int; full : bool; entries : int; gen : int }
  | Tlb_fill of { mm_id : int; vpn : int; pcid : int }
  | Stale_hit of { mm_id : int; vpn : int; benign : bool; detail : string }
  | Deferred_flush_exec of { full : bool; entries : int }
  | User_resume

type record = { time : int; cpu : int; actor : string; event : event }

type t = {
  engine : Engine.t;
  mutable is_enabled : bool;
  mutable buf : record array; (* circular: [head..head+len) mod length *)
  mutable head : int;
  mutable len : int;
  mutable cap : int; (* max records kept; max_int = unbounded *)
  mutable n_dropped : int;
}

let dummy = { time = 0; cpu = -1; actor = ""; event = Msg "" }

let create ?(enabled = false) ?max_records engine =
  let cap =
    match max_records with
    | None -> max_int
    | Some n ->
        if n <= 0 then invalid_arg "Trace.create: max_records must be positive";
        n
  in
  { engine; is_enabled = enabled; buf = [||]; head = 0; len = 0; cap; n_dropped = 0 }

let enable t = t.is_enabled <- true
let enabled t = t.is_enabled

let set_max_records t max_records =
  (match max_records with
  | Some n when n <= 0 -> invalid_arg "Trace.set_max_records: must be positive"
  | _ -> ());
  t.cap <- Option.value max_records ~default:max_int;
  (* Shrink in place if the new cap is below the live count. *)
  while t.len > t.cap do
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    t.n_dropped <- t.n_dropped + 1
  done

let grow t =
  let n = Array.length t.buf in
  let n' = Stdlib.min t.cap (Stdlib.max 64 (2 * n)) in
  let buf' = Array.make n' dummy in
  for i = 0 to t.len - 1 do
    buf'.(i) <- t.buf.((t.head + i) mod n)
  done;
  t.buf <- buf';
  t.head <- 0

let add t r =
  if t.is_enabled then begin
    if t.len = Array.length t.buf && t.len < t.cap then grow t;
    let n = Array.length t.buf in
    if t.len = n then begin
      (* Ring is at the cap: overwrite the oldest record. *)
      t.buf.(t.head) <- r;
      t.head <- (t.head + 1) mod n;
      t.n_dropped <- t.n_dropped + 1
    end
    else begin
      t.buf.((t.head + t.len) mod n) <- r;
      t.len <- t.len + 1
    end
  end

let emit t ~actor event =
  if t.is_enabled then
    add t { time = Engine.now t.engine; cpu = -1; actor; event = Msg event }

(* When disabled, ikfprintf consumes the arguments without formatting —
   emitf call sites pay nothing for an off trace. *)
let emitf t ~actor fmt =
  if t.is_enabled then Format.kasprintf (fun event -> emit t ~actor event) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let event t ~cpu event =
  if t.is_enabled then
    add t { time = Engine.now t.engine; cpu; actor = Printf.sprintf "cpu%d" cpu; event }

let iter t f =
  let n = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod n)
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

let dropped t = t.n_dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.n_dropped <- 0

let pp_event fmt = function
  | Msg s -> Format.pp_print_string fmt s
  | Gen_bump { mm_id; gen } -> Format.fprintf fmt "gen bump: mm%d -> %d" mm_id gen
  | Gen_read { mm_id; gen } -> Format.fprintf fmt "gen read: mm%d = %d" mm_id gen
  | Pte_write { mm_id; vpn; pages } ->
      Format.fprintf fmt "PTE write: mm%d [%d..%d)" mm_id vpn (vpn + pages)
  | Flush_start { window; mm_id; start_vpn; span; full } ->
      if full then Format.fprintf fmt "flush start: mm%d full (window %d)" mm_id window
      else
        Format.fprintf fmt "flush start: mm%d [%d..%d) (window %d)" mm_id start_vpn
          (start_vpn + span) window
  | Flush_done { window; mm_id } ->
      Format.fprintf fmt "flush done: mm%d (window %d)" mm_id window
  | Ipi_send { seq; target } -> Format.fprintf fmt "IPI -> cpu%d (seq %d)" target seq
  | Ipi_begin { seq; initiator; early_ack } ->
      Format.fprintf fmt "IPI begin from cpu%d (seq %d%s)" initiator seq
        (if early_ack then ", early-ack" else "")
  | Ipi_ack { seq; initiator; early } ->
      Format.fprintf fmt "%sack to cpu%d (seq %d)"
        (if early then "early " else "")
        initiator seq
  | Acks_seen { seqs } ->
      Format.fprintf fmt "all acks seen (seqs %s)"
        (String.concat "," (List.map string_of_int seqs))
  | Tlb_flush { mm_id; full; entries; gen } ->
      if full then Format.fprintf fmt "full flush of mm%d (gen -> %d)" mm_id gen
      else Format.fprintf fmt "ranged flush of %d PTE(s) of mm%d (gen -> %d)" entries mm_id gen
  | Tlb_fill { mm_id; vpn; pcid } ->
      Format.fprintf fmt "TLB fill: mm%d vpn %d (pcid %d)" mm_id vpn pcid
  | Stale_hit { mm_id; vpn; benign; detail } ->
      Format.fprintf fmt "stale hit: mm%d vpn %d (%s; %s)" mm_id vpn
        (if benign then "benign in-flight" else "VIOLATION")
        detail
  | Deferred_flush_exec { full; entries } ->
      if full then Format.fprintf fmt "deferred user flush: full"
      else Format.fprintf fmt "deferred user flush: %d INVLPG + LFENCE" entries
  | User_resume -> Format.pp_print_string fmt "return to user"

let pp fmt t =
  let actor_width = fold t ~init:5 (fun w r -> Stdlib.max w (String.length r.actor)) in
  if t.n_dropped > 0 then
    Format.fprintf fmt "... (%d older records dropped)@." t.n_dropped;
  iter t (fun r ->
      Format.fprintf fmt "%8d | %-*s | %a@." r.time actor_width r.actor pp_event r.event)
