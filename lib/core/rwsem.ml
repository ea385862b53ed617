type t = {
  mutable n_readers : int;
  mutable writer : bool;
  mutable writers_waiting : int;
  q : Waitq.t;
}

let create engine = { n_readers = 0; writer = false; writers_waiting = 0; q = Waitq.create engine }

let rec down_read t =
  if t.writer || t.writers_waiting > 0 then begin
    Waitq.wait t.q;
    down_read t
  end
  else t.n_readers <- t.n_readers + 1

let up_read t =
  if t.n_readers <= 0 then invalid_arg "Rwsem.up_read: not held";
  t.n_readers <- t.n_readers - 1;
  if t.n_readers = 0 then Waitq.signal_all t.q

let rec down_write t =
  if t.writer || t.n_readers > 0 then begin
    t.writers_waiting <- t.writers_waiting + 1;
    Waitq.wait t.q;
    t.writers_waiting <- t.writers_waiting - 1;
    down_write t
  end
  else t.writer <- true

let up_write t =
  if not t.writer then invalid_arg "Rwsem.up_write: not held";
  t.writer <- false;
  Waitq.signal_all t.q
