type page_size = Four_k | Two_m

type entry = {
  mutable vpn : int;
  mutable pfn : int;
  mutable pcid : int;
  mutable size : page_size;
  mutable global : bool;
  mutable writable : bool;
  mutable fractured : bool;
  mutable ck_ver : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invlpg_ops : int;
  invpcid_ops : int;
  full_flushes : int;
  fracture_full_flushes : int;
}

let no_entry =
  {
    vpn = -1;
    pfn = -1;
    pcid = -1;
    size = Four_k;
    global = false;
    writable = false;
    fractured = false;
    ck_ver = -1;
  }

(* Keys are packed ints: [tag lsl 13 | pcid lsl 1 | size_bit]. PCIDs fit 12
   bits (kernel PCIDs are small slot numbers, user PCIDs are slot + 2048 <
   4096); 2 MiB entries are tagged by [vpn lsr 9] so a 4 KiB lookup can find
   its covering hugepage. Global entries match regardless of PCID, so they
   live in a separate table keyed [tag lsl 1 | size_bit]. Keys are never
   negative, so -1 marks a free cell. *)
let pcid_bits = 12
let pcid_mask = (1 lsl pcid_bits) - 1
let size_bit = function Four_k -> 0 | Two_m -> 1
let tag_of vpn = function Four_k -> vpn | Two_m -> vpn lsr 9

let key ~pcid ~tag size =
  (tag lsl (pcid_bits + 1)) lor (pcid lsl 1) lor size_bit size

let gkey ~tag size = (tag lsl 1) lor size_bit size
let key_pcid k = (k lsr 1) land pcid_mask

(* One table: cells that never move, each owning one entry record that
   fills rewrite in place, and an open-addressed index of cell ids
   (linear probing, load at most 1/2, backward-shift deletion, so no
   tombstones). [prev]/[next] thread the live cells into one list from
   oldest to newest fill, the FIFO eviction order: a new key links at the
   tail, a removal unlinks in O(1) and eviction takes the head. Cells
   [0, used) were handed out since the last clear; the freed ones among
   them wait on a free list through [next]. Every array starts empty and
   grows by doubling only when a fill finds no free cell, so a TLB that
   never fills holds no table and a warm one allocates nothing. *)
type tbl = {
  mutable index : int array;  (* power-of-two length; -1 = empty, else a cell *)
  mutable shift : int;  (* [Sys.int_size - log2 (length index)] *)
  mutable keys : int array;  (* cell -> key, -1 when free *)
  mutable cells : entry array;  (* cell -> its record, [no_entry] until first used *)
  mutable prev : int array;  (* live cell -> the next older one, -1 at [head] *)
  mutable next : int array;  (* live cell -> the next newer one, -1 at [tail];
                                free cell -> the next free one *)
  mutable head : int;  (* oldest live cell, or -1 *)
  mutable tail : int;  (* newest live cell, or -1 *)
  mutable free : int;  (* first cell of the free list, or -1 *)
  mutable used : int;
  mutable count : int;  (* live keys *)
}

let new_tbl () =
  {
    index = [||];
    shift = 0;
    keys = [||];
    cells = [||];
    prev = [||];
    next = [||];
    head = -1;
    tail = -1;
    free = -1;
    used = 0;
    count = 0;
  }

(* Multiplicative (Fibonacci) hash, top bits: adjacent tags — the common
   access pattern — spread across the index. *)
let[@inline] home tb k = (k * 0x2545f4914f6cdd1d) lsr tb.shift

(* The cell holding [k], or -1. *)
let find tb k =
  let index = tb.index in
  let n = Array.length index in
  if n = 0 then -1
  else begin
    let mask = n - 1 in
    let s = ref (home tb k) in
    let c = ref index.(!s) in
    while !c >= 0 && tb.keys.(!c) <> k do
      s := (!s + 1) land mask;
      c := index.(!s)
    done;
    !c
  end

let index_add tb c =
  let index = tb.index in
  let mask = Array.length index - 1 in
  let s = ref (home tb tb.keys.(c)) in
  while index.(!s) >= 0 do
    s := (!s + 1) land mask
  done;
  index.(!s) <- c

(* Double the cells, at most to [limit], and rebuild the index for them. *)
let grow tb ~limit =
  let n = Array.length tb.keys in
  let n' = Int.min limit (Int.max 8 (2 * n)) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  tb.keys <- extend tb.keys (-1);
  tb.cells <- extend tb.cells no_entry;
  tb.prev <- extend tb.prev (-1);
  tb.next <- extend tb.next (-1);
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n' do
    incr bits
  done;
  tb.index <- Array.make (1 lsl !bits) (-1);
  tb.shift <- Sys.int_size - !bits;
  for c = 0 to tb.used - 1 do
    if tb.keys.(c) >= 0 then index_add tb c
  done

(* A cell for the new key [k], which is not in the table, linked as the
   newest. *)
let add tb k ~limit =
  let c =
    if tb.free >= 0 then begin
      let c = tb.free in
      tb.free <- tb.next.(c);
      c
    end
    else begin
      if tb.used = Array.length tb.keys then grow tb ~limit;
      let c = tb.used in
      tb.used <- c + 1;
      if tb.cells.(c) == no_entry then tb.cells.(c) <- { no_entry with vpn = -1 };
      c
    end
  in
  tb.keys.(c) <- k;
  index_add tb c;
  tb.prev.(c) <- tb.tail;
  tb.next.(c) <- -1;
  if tb.tail >= 0 then tb.next.(tb.tail) <- c else tb.head <- c;
  tb.tail <- c;
  tb.count <- tb.count + 1;
  c

(* Empty index slot [s]: pull each later entry of its run back into the
   hole unless its home lies cyclically after the hole. *)
let delete_slot tb s =
  let index = tb.index in
  let mask = Array.length index - 1 in
  let c = index.(s) in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while index.(!j) >= 0 do
    let h = home tb tb.keys.(index.(!j)) in
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      index.(!hole) <- index.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.(!hole) <- -1;
  tb.keys.(c) <- -1;
  let p = tb.prev.(c) and n = tb.next.(c) in
  if p >= 0 then tb.next.(p) <- n else tb.head <- n;
  if n >= 0 then tb.prev.(n) <- p else tb.tail <- p;
  tb.next.(c) <- tb.free;
  tb.free <- c;
  tb.count <- tb.count - 1

let remove_key tb k =
  let index = tb.index in
  let n = Array.length index in
  if n > 0 then begin
    let mask = n - 1 in
    let s = ref (home tb k) in
    while index.(!s) >= 0 && tb.keys.(index.(!s)) <> k do
      s := (!s + 1) land mask
    done;
    if index.(!s) >= 0 then delete_slot tb !s
  end

(* Every occupied index slot holds a live cell and sits in the run that
   starts at that cell's home, so clearing each live key's run from its
   home empties the index in O(live entries), whatever its size. *)
let clear tb =
  let index = tb.index in
  let mask = Array.length index - 1 in
  for c = 0 to tb.used - 1 do
    let k = tb.keys.(c) in
    if k >= 0 then begin
      let s = ref (home tb k) in
      while index.(!s) >= 0 do
        index.(!s) <- -1;
        s := (!s + 1) land mask
      done;
      tb.keys.(c) <- -1
    end
  done;
  tb.used <- 0;
  tb.head <- -1;
  tb.tail <- -1;
  tb.free <- -1;
  tb.count <- 0

type t = {
  cap : int;
  table : tbl;
  globals : tbl;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_insertions : int;
  mutable s_evictions : int;
  mutable s_invlpg : int;
  mutable s_invpcid : int;
  mutable s_full : int;
  mutable s_fracture_full : int;
  mutable pwc : bool;
  mutable fracture : bool;
  mutable flush_meter : (bool -> int -> unit) option;
      (* (is_full_flush, entries dropped) per whole-TLB or whole-PCID
         flush; installed by the metrics layer. *)
}

let create ?(capacity = 1536) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    cap = capacity;
    table = new_tbl ();
    globals = new_tbl ();
    s_hits = 0;
    s_misses = 0;
    s_insertions = 0;
    s_evictions = 0;
    s_invlpg = 0;
    s_invpcid = 0;
    s_full = 0;
    s_fracture_full = 0;
    pwc = false;
    fracture = false;
    flush_meter = None;
  }

let set_flush_meter t f = t.flush_meter <- Some f

let capacity t = t.cap

let find_entry t ~pcid ~vpn =
  let c = find t.table (key ~pcid ~tag:vpn Four_k) in
  if c >= 0 then t.table.cells.(c)
  else
    let c = find t.globals (gkey ~tag:vpn Four_k) in
    if c >= 0 then t.globals.cells.(c)
    else
      let tag = vpn lsr 9 in
      let c = find t.table (key ~pcid ~tag Two_m) in
      if c >= 0 then t.table.cells.(c)
      else
        let c = find t.globals (gkey ~tag Two_m) in
        if c >= 0 then t.globals.cells.(c) else no_entry

let probe t ~pcid ~vpn =
  let e = find_entry t ~pcid ~vpn in
  if e == no_entry then t.s_misses <- t.s_misses + 1 else t.s_hits <- t.s_hits + 1;
  e

let lookup t ~pcid ~vpn =
  let e = probe t ~pcid ~vpn in
  if e == no_entry then None else Some e

let mem t ~pcid ~vpn = find_entry t ~pcid ~vpn != no_entry

(* A new non-global key at capacity evicts the oldest live one. *)
let make_room t =
  let tb = t.table in
  if tb.count >= t.cap then begin
    remove_key tb tb.keys.(tb.head);
    t.s_evictions <- t.s_evictions + 1
  end

let fill t ~vpn ~pfn ~pcid ~size ~global ~writable ~fractured =
  if pcid < 0 || pcid > pcid_mask then invalid_arg "Tlb.fill: pcid out of range";
  t.s_insertions <- t.s_insertions + 1;
  if fractured then t.fracture <- true;
  let tag = tag_of vpn size in
  let e =
    if global then begin
      let tb = t.globals and k = gkey ~tag size in
      let c = find tb k in
      tb.cells.(if c >= 0 then c else add tb k ~limit:max_int)
    end
    else begin
      let tb = t.table and k = key ~pcid ~tag size in
      let c = find tb k in
      (* Overwriting a resident key keeps its FIFO place (FIFO, not LRU)
         and must not evict anything — only a new key needs room. *)
      if c >= 0 then tb.cells.(c)
      else begin
        make_room t;
        tb.cells.(add tb k ~limit:t.cap)
      end
    end
  in
  e.vpn <- vpn;
  e.pfn <- pfn;
  e.pcid <- pcid;
  e.size <- size;
  e.global <- global;
  e.writable <- writable;
  e.fractured <- fractured;
  e.ck_ver <- -1

let insert t e =
  fill t ~vpn:e.vpn ~pfn:e.pfn ~pcid:e.pcid ~size:e.size ~global:e.global
    ~writable:e.writable ~fractured:e.fractured

let full_flush_internal t =
  (match t.flush_meter with
  | Some f -> f true (t.table.count + t.globals.count)
  | None -> ());
  clear t.table;
  clear t.globals;
  t.pwc <- false;
  t.fracture <- false

let flush_all t =
  t.s_full <- t.s_full + 1;
  full_flush_internal t

(* A selective flush on a fractured TLB is promoted to a full flush. *)
let fracture_promote t =
  t.s_fracture_full <- t.s_fracture_full + 1;
  full_flush_internal t

let drop_selective t ~pcid ~vpn ~drop_globals =
  remove_key t.table (key ~pcid ~tag:vpn Four_k);
  remove_key t.table (key ~pcid ~tag:(vpn lsr 9) Two_m);
  if drop_globals then begin
    remove_key t.globals (gkey ~tag:vpn Four_k);
    remove_key t.globals (gkey ~tag:(vpn lsr 9) Two_m)
  end

let invlpg t ~current_pcid ~vpn =
  t.s_invlpg <- t.s_invlpg + 1;
  if t.fracture then fracture_promote t
  else begin
    drop_selective t ~pcid:current_pcid ~vpn ~drop_globals:true;
    t.pwc <- false
  end

let drop t ~pcid ~vpn = drop_selective t ~pcid ~vpn ~drop_globals:false

let invpcid_addr t ~pcid ~vpn =
  t.s_invpcid <- t.s_invpcid + 1;
  if t.fracture then fracture_promote t
  else drop_selective t ~pcid ~vpn ~drop_globals:false

(* Cells never move, so removing while walking them is safe. *)
let drop_pcid t ~pcid =
  let tb = t.table in
  let dropped = ref 0 in
  for c = 0 to tb.used - 1 do
    let k = tb.keys.(c) in
    if k >= 0 && key_pcid k = pcid then begin
      remove_key tb k;
      incr dropped
    end
  done;
  match t.flush_meter with Some f -> f false !dropped | None -> ()

let flush_pcid t ~pcid =
  t.s_invpcid <- t.s_invpcid + 1;
  drop_pcid t ~pcid

let cr3_flush t ~pcid = drop_pcid t ~pcid

let pwc_warm t = t.pwc
let warm_pwc t = t.pwc <- true
let fracture_flag t = t.fracture

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    insertions = t.s_insertions;
    evictions = t.s_evictions;
    invlpg_ops = t.s_invlpg;
    invpcid_ops = t.s_invpcid;
    full_flushes = t.s_full;
    fracture_full_flushes = t.s_fracture_full;
  }

(* Copies, sorted by packed key, so the listing depends only on the
   contents, never on cell order or insert/flush history, and no later
   fill rewrites it. *)
let entries t =
  let sorted tb =
    let acc = ref [] in
    for c = 0 to tb.used - 1 do
      if tb.keys.(c) >= 0 then begin
        let e = tb.cells.(c) in
        acc := (tb.keys.(c), { e with ck_ver = e.ck_ver }) :: !acc
      end
    done;
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc |> List.map snd
  in
  sorted t.table @ sorted t.globals
