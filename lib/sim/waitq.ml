(* A waiter is its process's handler tag: [wait] queues the tag and parks,
   [signal_one] schedules a wake event for it. The tags sit in a circular
   int buffer (power-of-two capacity, grown by doubling), so at steady
   state a wait allocates nothing beyond the process's continuation. *)
type t = {
  engine : Engine.t;
  mutable tags : int array;
  mutable head : int; (* index of the earliest waiter *)
  mutable len : int;
}

let create engine = { engine; tags = [||]; head = 0; len = 0 }

let grow t =
  let cap = Array.length t.tags in
  let bigger = Array.make (Int.max 4 (2 * cap)) 0 in
  for i = 0 to t.len - 1 do
    bigger.(i) <- t.tags.((t.head + i) land (cap - 1))
  done;
  t.tags <- bigger;
  t.head <- 0

let wait t =
  let tag = Process.self_tag t.engine in
  if t.len = Array.length t.tags then grow t;
  t.tags.((t.head + t.len) land (Array.length t.tags - 1)) <- tag;
  t.len <- t.len + 1;
  Process.park ()

let signal_one t =
  if t.len > 0 then begin
    let tag = t.tags.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.tags - 1);
    t.len <- t.len - 1;
    Process.wake t.engine tag
  end

let signal_all t =
  while t.len > 0 do
    signal_one t
  done

let waiters t = t.len

module Completion = struct
  type c = { q : t; mutable fired : bool }

  let create engine = { q = create engine; fired = false }

  let fire c =
    if not c.fired then begin
      c.fired <- true;
      signal_all c.q
    end

  let is_fired c = c.fired
  let wait c = if not c.fired then wait c.q
end
