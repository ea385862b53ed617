(* tlblint: proven-bounds — every unsafe array access below indexes
   [t.words] with a word index already compared against [Array.length
   t.words] (or produced by a [for] loop bounded by it); bit offsets are
   [land 31] so shifts stay in [0,31]. *)

(* A CPU set as a growable int-array bitset, 32 bits per word.

   32 (not [Sys.int_size]) bits per word so the word/bit split is a shift
   and a mask instead of division by 63 — the split runs on every [mem] on
   the cacheline hot path. Word values stay well inside OCaml's immediate
   int range, so the array is unboxed and reads allocate nothing.

   The array grows on [set] and starts at a shared empty array: a set that
   is never populated (the common case for per-line sharer sets on big
   machines, where most protocol lines are touched by a handful of CPUs)
   costs two words, and a sparse set over a 1024-CPU topology only ever
   allocates up to its highest member's word. All traversals skip zero
   words, then zero bytes within a word, so iteration is O(words +
   set bits) with no closure or list allocation of its own. *)

type t = { mutable words : int array }

let bits_per_word_shift = 5
let bits_per_word = 1 lsl bits_per_word_shift
let bit_mask = bits_per_word - 1
let empty_words : int array = [||]

let create ~bits =
  if bits < 0 then invalid_arg "Cpuset.create: negative capacity";
  if bits = 0 then { words = empty_words }
  else { words = Array.make ((bits + bit_mask) lsr bits_per_word_shift) 0 }

let capacity t = Array.length t.words * bits_per_word

(* Grow to cover word index [wi]; doubling keeps repeated single-bit
   growth amortized O(1). *)
let grow t wi =
  let old = t.words in
  let n = Array.length old in
  let bigger = Array.make (Int.max (wi + 1) (2 * n)) 0 in
  Array.blit old 0 bigger 0 n;
  t.words <- bigger

let set t b =
  if b < 0 then invalid_arg "Cpuset.set: negative element";
  let wi = b lsr bits_per_word_shift in
  if wi >= Array.length t.words then grow t wi;
  Array.unsafe_set t.words wi
    (Array.unsafe_get t.words wi lor (1 lsl (b land bit_mask)))

(* [clear]/[mem] on an element past the capacity are no-ops / [false]:
   absence needs no storage, so they never grow. A negative [b] shifts to a
   huge positive word index ([lsr] is logical) and takes the same path. *)
let clear t b =
  let wi = b lsr bits_per_word_shift in
  if wi < Array.length t.words then
    Array.unsafe_set t.words wi
      (Array.unsafe_get t.words wi land lnot (1 lsl (b land bit_mask)))

let mem t b =
  let wi = b lsr bits_per_word_shift in
  wi < Array.length t.words
  && Array.unsafe_get t.words wi land (1 lsl (b land bit_mask)) <> 0

let is_empty t =
  let words = t.words in
  let n = Array.length words in
  let i = ref 0 in
  while !i < n && Array.unsafe_get words !i = 0 do
    incr i
  done;
  !i = n

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

(* SWAR popcount of a 32-bit word (values never exceed 32 bits, so the
   multiply's high garbage is masked off after the shift). *)
let popcount32 w =
  let w = w - ((w lsr 1) land 0x55555555) in
  let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
  let w = (w + (w lsr 4)) land 0x0f0f0f0f in
  (w * 0x01010101) lsr 24 land 0x3f

let count t =
  let words = t.words in
  let acc = ref 0 in
  for i = 0 to Array.length words - 1 do
    let w = Array.unsafe_get words i in
    if w <> 0 then acc := !acc + popcount32 w
  done;
  !acc

(* Traversals snapshot each word as they reach it: [f] may clear the
   element it was called with (or earlier ones) without disturbing the
   walk — the in-place filtering [Proto_paper.select_targets] relies on —
   but must not set bits, which could be missed or double-visited. *)
let iter f t =
  let words = t.words in
  for wi = 0 to Array.length words - 1 do
    let w = Array.unsafe_get words wi in
    if w <> 0 then begin
      let m = ref w in
      let b = ref (wi lsl bits_per_word_shift) in
      while !m <> 0 do
        if !m land 0xff = 0 then begin
          m := !m lsr 8;
          b := !b + 8
        end
        else begin
          if !m land 1 = 1 then f !b;
          m := !m lsr 1;
          incr b
        end
      done
    end
  done

(* A cursor for walks that suspend between members, where [iter] cannot
   hold its place. *)
let next t b =
  let words = t.words in
  let n = Array.length words in
  let wi = ref (b lsr bits_per_word_shift) in
  let w =
    ref
      (if !wi < n then Array.unsafe_get words !wi land (-1 lsl (b land bit_mask))
       else 0)
  in
  while !w = 0 && !wi + 1 < n do
    incr wi;
    w := Array.unsafe_get words !wi
  done;
  if !w = 0 then -1
  else begin
    let b = ref (!wi lsl bits_per_word_shift) in
    while !w land 0xff = 0 do
      w := !w lsr 8;
      b := !b + 8
    done;
    while !w land 1 = 0 do
      w := !w lsr 1;
      incr b
    done;
    !b
  end

let fold f init t =
  let words = t.words in
  let acc = ref init in
  for wi = 0 to Array.length words - 1 do
    let w = Array.unsafe_get words wi in
    if w <> 0 then begin
      let m = ref w in
      let b = ref (wi lsl bits_per_word_shift) in
      while !m <> 0 do
        if !m land 0xff = 0 then begin
          m := !m lsr 8;
          b := !b + 8
        end
        else begin
          if !m land 1 = 1 then acc := f !acc !b;
          m := !m lsr 1;
          incr b
        end
      done
    end
  done;
  !acc

let ensure_words t n =
  if Array.length t.words < n then grow t (n - 1)

let union_into ~dst ~src =
  let sw = src.words in
  let n = Array.length sw in
  ensure_words dst n;
  let dw = dst.words in
  for i = 0 to n - 1 do
    let w = Array.unsafe_get sw i in
    if w <> 0 then Array.unsafe_set dw i (Array.unsafe_get dw i lor w)
  done

let copy_into ~dst ~src =
  let sw = src.words in
  let n = Array.length sw in
  ensure_words dst n;
  let dw = dst.words in
  Array.blit sw 0 dw 0 n;
  Array.fill dw n (Array.length dw - n) 0

let to_list t = List.rev (fold (fun acc b -> b :: acc) [] t)

let of_list l =
  let t = create ~bits:0 in
  List.iter (fun b -> set t b) l;
  t

let raw_words t = t.words
