(* Streaming moments are exact for any sample count; percentiles come from
   a retained-sample buffer that is exact up to [cap] samples and then
   degrades to a deterministic systematic subsample: when the buffer
   fills, every other retained sample is dropped and the retention stride
   doubles, so afterwards one of every [stride] incoming samples is kept.
   The subsample is a pure function of the input stream (no RNG), which
   keeps merged reports byte-identical across worker counts. *)

let default_cap = 8192

(* The running moments live in one flat float array rather than mutable
   record fields: this record mixes ints and floats, so its float fields
   would be boxed and every [add] would allocate a fresh box per updated
   field. A [float array] stores them unboxed — [add] is allocation-free. *)
let a_sum = 0
let a_mean = 1 (* Welford running mean *)
let a_m2 = 2 (* Welford sum of squared deviations *)
let a_min = 3
let a_max = 4

type t = {
  cap : int;
  mutable buf : float array; (* retained samples, insertion order *)
  mutable len : int;
  mutable stride : int; (* keep 1 of every [stride] incoming samples *)
  mutable pending : int; (* samples seen since the last retained one *)
  mutable n : int;
  acc : float array; (* unboxed moments, indexed by [a_*] *)
  mutable sorted_cache : float array option;
}

let fresh_acc () =
  let acc = Array.make 5 0.0 in
  acc.(a_min) <- infinity;
  acc.(a_max) <- neg_infinity;
  acc

let create ?(cap = default_cap) () =
  if cap < 2 then invalid_arg "Stats.create: cap must be at least 2";
  {
    cap;
    buf = [||];
    len = 0;
    stride = 1;
    pending = 0;
    n = 0;
    acc = fresh_acc ();
    sorted_cache = None;
  }

(* Halve the retained set in place (keep indices 0, 2, 4, ...) and double
   the stride. Deterministic: no randomness, order preserved. *)
let compact t =
  let kept = ref 0 in
  let i = ref 0 in
  while !i < t.len do
    t.buf.(!kept) <- t.buf.(!i);
    incr kept;
    i := !i + 2
  done;
  t.len <- !kept;
  t.stride <- t.stride * 2;
  t.pending <- 0

let retain t x =
  if t.len = Array.length t.buf then begin
    let grown = Stdlib.min t.cap (Stdlib.max 64 (2 * t.len)) in
    if grown > t.len then begin
      let buf' = Array.make grown 0.0 in
      Array.blit t.buf 0 buf' 0 t.len;
      t.buf <- buf'
    end
  end;
  if t.len = t.cap then compact t;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

let add t x =
  t.sorted_cache <- None;
  t.n <- t.n + 1;
  let acc = t.acc in
  acc.(a_sum) <- acc.(a_sum) +. x;
  (* Welford's online variance update. *)
  let delta = x -. acc.(a_mean) in
  acc.(a_mean) <- acc.(a_mean) +. (delta /. float_of_int t.n);
  acc.(a_m2) <- acc.(a_m2) +. (delta *. (x -. acc.(a_mean)));
  if x < acc.(a_min) then acc.(a_min) <- x;
  if x > acc.(a_max) then acc.(a_max) <- x;
  t.pending <- t.pending + 1;
  if t.pending >= t.stride then begin
    t.pending <- 0;
    retain t x
  end

let count t = t.n
let retained t = t.len
let exact_percentiles t = t.stride = 1
let total t = t.acc.(a_sum)
let mean t = if t.n = 0 then 0.0 else t.acc.(a_mean)
let stddev t = if t.n < 2 then 0.0 else sqrt (t.acc.(a_m2) /. float_of_int (t.n - 1))
let min_opt t = if t.n = 0 then None else Some t.acc.(a_min)
let max_opt t = if t.n = 0 then None else Some t.acc.(a_max)

let sorted t =
  match t.sorted_cache with
  | Some a -> a
  | None ->
      let a = Array.sub t.buf 0 t.len in
      (* Float.compare, not polymorphic compare: it is monomorphic (no
         per-element tag dispatch) and total on NaN, so a NaN sample can
         never make the sort order — and thus every percentile —
         unspecified. NaN sorts below every number. *)
      Array.sort Float.compare a;
      t.sorted_cache <- Some a;
      a

let percentile_opt t p =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then None
  else if n = 1 then Some a.(0)
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then Some a.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      Some (a.(lo) +. (frac *. (a.(hi) -. a.(lo))))
    end
  end


(* Chan et al.'s parallel-Welford combination: moments merge exactly (up
   to float rounding) without replaying [other]'s samples — which would be
   impossible anyway once [other] has thinned its retained buffer. The
   retained samples feed the percentile buffer through the normal
   retention path, in [other]'s insertion order, so the merged retained
   set is again a pure function of the inputs. *)
let merge_into t other =
  if other.n > 0 then begin
    t.sorted_cache <- None;
    let acc = t.acc and oacc = other.acc in
    let n1 = float_of_int t.n and n2 = float_of_int other.n in
    let n = n1 +. n2 in
    let delta = oacc.(a_mean) -. acc.(a_mean) in
    acc.(a_mean) <- acc.(a_mean) +. (delta *. n2 /. n);
    acc.(a_m2) <- acc.(a_m2) +. oacc.(a_m2) +. (delta *. delta *. n1 *. n2 /. n);
    t.n <- t.n + other.n;
    acc.(a_sum) <- acc.(a_sum) +. oacc.(a_sum);
    if oacc.(a_min) < acc.(a_min) then acc.(a_min) <- oacc.(a_min);
    if oacc.(a_max) > acc.(a_max) then acc.(a_max) <- oacc.(a_max);
    for i = 0 to other.len - 1 do
      t.pending <- t.pending + 1;
      if t.pending >= t.stride then begin
        t.pending <- 0;
        retain t other.buf.(i)
      end
    done
  end

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    width : float;
    bins : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable nans : int;
  }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
    if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int buckets;
      bins = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
      nans = 0;
    }

  let bucket_of h x =
    if Float.is_nan x || x < h.lo || x >= h.hi then None
    else
      (* Values a rounding error below [hi] can compute index = buckets;
         clamp those into the last bin (they are in range by the test
         above). *)
      Some (Stdlib.min (Array.length h.bins - 1) (int_of_float ((x -. h.lo) /. h.width)))

  let add h x =
    match bucket_of h x with
    | Some b -> h.bins.(b) <- h.bins.(b) + 1
    | None ->
        (* Out-of-range samples must not be folded into the edge bins:
           that silently corrupts the tail buckets. Account explicitly. *)
        if Float.is_nan x then h.nans <- h.nans + 1
        else if x < h.lo then h.underflow <- h.underflow + 1
        else h.overflow <- h.overflow + 1

  let counts h = Array.copy h.bins
  let underflow h = h.underflow
  let overflow h = h.overflow
  let nan_count h = h.nans
  let lo h = h.lo
  let hi h = h.hi
  let buckets h = Array.length h.bins

  let total h =
    Array.fold_left ( + ) 0 h.bins + h.underflow + h.overflow + h.nans

  let merge_into dst src =
    if
      (not (Float.equal dst.lo src.lo))
      || (not (Float.equal dst.hi src.hi))
      || Array.length dst.bins <> Array.length src.bins
    then invalid_arg "Histogram.merge_into: bucket configurations differ";
    Array.iteri (fun i c -> dst.bins.(i) <- dst.bins.(i) + c) src.bins;
    dst.underflow <- dst.underflow + src.underflow;
    dst.overflow <- dst.overflow + src.overflow;
    dst.nans <- dst.nans + src.nans

  let pp fmt h =
    if h.underflow > 0 then Format.fprintf fmt "(-inf,%.0f): %d@." h.lo h.underflow;
    Array.iteri
      (fun i c ->
        let left = h.lo +. (float_of_int i *. h.width) in
        Format.fprintf fmt "[%.0f,%.0f): %d@." left (left +. h.width) c)
      h.bins;
    if h.overflow > 0 then Format.fprintf fmt "[%.0f,+inf): %d@." h.hi h.overflow;
    if h.nans > 0 then Format.fprintf fmt "NaN: %d@." h.nans
end
