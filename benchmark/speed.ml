(* Host speed reference for the untraced run.

   On a shared host the speed one process gets can swing by 2x for seconds
   at a time as neighbours come and go, and no number of passes averages
   that away. So the untraced run interleaves a fixed reference chunk with
   the cells it times, one chunk per [every_s] of timed work, and scales
   each pass's host times by its chunks' nominal over their measured
   total: the times read as seconds on a host where one chunk takes
   [chunk_nominal_s]. Interleaved in proportion to the work, the chunks
   meet the same slow and fast spells as the cells do.

   A chunk does random read-modify-writes over a 32 MiB table, a working
   set the size of the simulator's heap, and over 256 KiB of it, a
   working set that fits the core's own caches. The slow spells are cache
   and memory contention, not lost CPU time (a pure arithmetic loop does
   not slow in them), and of the chunks tried this pair tracked the
   simulator's slow spells best on every workload. A chunk allocates
   nothing, so the run's allocation and GC stay independent of how many
   chunks ran, and it calls no library code, so a faster simulator moves
   the metrics and never the reference. *)

let chunk_nominal_s = 0.0003
let every_s = 0.004

(* Outside the OCaml heap, so it adds nothing to the peak-heap metric. *)
let table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22)
let () = Bigarray.Array1.fill table 0

(* Random read-modify-writes over the first [1 lsl bits] slots. *)
let touch ~bits n =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land ((1 lsl bits) - 1) in
    let v = Bigarray.Array1.get table i in
    Bigarray.Array1.set table i (v + 1);
    acc := !acc + v
  done;
  ignore (Sys.opaque_identity !acc)

let chunk () =
  touch ~bits:22 20_000;
  touch ~bits:15 40_000

(* All-float, so updates never allocate. *)
type t = { mutable debt_s : float; mutable chunks : float; mutable chunk_s : float }

let create () = { debt_s = 0.0; chunks = 0.0; chunk_s = 0.0 }

(* Account [work_s] seconds of timed work, running the chunks it is owed. *)
let pace t work_s =
  t.debt_s <- t.debt_s +. work_s;
  while t.debt_s >= every_s do
    t.debt_s <- t.debt_s -. every_s;
    let t0 = Unix.gettimeofday () in
    chunk ();
    t.chunk_s <- t.chunk_s +. (Unix.gettimeofday () -. t0);
    t.chunks <- t.chunks +. 1.0
  done

(* The factor that turns host times measured alongside [t]'s chunks into
   nominal-host times. *)
let scale t = if t.chunks = 0.0 then 1.0 else t.chunks *. chunk_nominal_s /. t.chunk_s
