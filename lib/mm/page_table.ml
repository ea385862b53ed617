(* tlblint: proven-bounds — [index_at] masks to 9 bits (land 511), so a
   slot index splits into a chunk index [idx lsr 6] < 8, the length of
   every [chunks] array, and a chunk offset [idx land 63] < 64, the length
   of every chunk; these are the only indices fed to Array.unsafe_get. *)
(* A node is a real 512-slot table, exactly like the x86-64 structure it
   models: [index_at] produces 9-bit indices, so flat arrays replace the
   hashtable this used — [walk] is the hottest lookup in page-fault-heavy
   workloads and generic hashing of the index was a measurable share of it.
   The 512 slots are eight 64-slot chunks, each allocated on its first
   write; until then it is [empty_chunk], one all-[Empty] chunk every node
   shares and nothing writes. A fresh table thus costs a record, the chunk
   index and one chunk, 78 minor-heap words, where one 512-slot array
   would be a 513-word allocation straight into the major heap.
   [live] counts occupied slots so emptiness checks stay O(1). *)
type node = { level : int; mutable live : int; chunks : slot array array }

and slot = Empty | Table of node | Leaf of Pte.t * Tlb.page_size

let empty_chunk : slot array = Array.make 64 Empty

type t = {
  root : node;  (* level 4 *)
  spare : node list array;
      (* [spare.(l)]: freed level-[l] tables, all slots [Empty], kept with
         their chunks for the next table this tree needs at that level, so
         unmap-then-map churn (apache's per-request mmap) allocates no
         table per request. *)
  mutable n_mapped : int;
  mutable n_tables : int;
  mutable n_tables_freed : int;
  mutable ver : int;
}

type walk = { pte : Pte.t; size : Tlb.page_size; levels : int }

type range_unmap = {
  removed : (int * Pte.t * Tlb.page_size) list;
  freed_tables : bool;
}

let index_at ~level vpn = (vpn lsr ((level - 1) * 9)) land 511

let fresh_node level = { level; live = 0; chunks = Array.make 8 empty_chunk }

let get node idx =
  Array.unsafe_get (Array.unsafe_get node.chunks (idx lsr 6)) (idx land 63)

(* Overwrite a slot whose chunk is already allocated (it holds a non-[Empty]
   slot). *)
let put node idx slot =
  Array.unsafe_set (Array.unsafe_get node.chunks (idx lsr 6)) (idx land 63) slot

(* The chunk holding slot [idx], allocated if this is its first write. *)
let chunk_for_write node idx =
  let c = Array.unsafe_get node.chunks (idx lsr 6) in
  if c != empty_chunk then c
  else begin
    let c = Array.make 64 Empty in
    Array.unsafe_set node.chunks (idx lsr 6) c;
    c
  end

let create () =
  {
    root = fresh_node 4;
    spare = Array.make 4 [];
    n_mapped = 0;
    n_tables = 0;
    ver = 0;
    n_tables_freed = 0;
  }

let take_node t level =
  match t.spare.(level) with
  | node :: rest ->
      t.spare.(level) <- rest;
      node
  | [] -> fresh_node level

let leaf_level = function Tlb.Four_k -> 1 | Tlb.Two_m -> 2

let set node idx slot =
  let c = chunk_for_write node idx in
  (match Array.unsafe_get c (idx land 63) with
  | Empty -> node.live <- node.live + 1
  | _ -> ());
  Array.unsafe_set c (idx land 63) slot

let clear node idx =
  match get node idx with
  | Empty -> ()
  | _ ->
      put node idx Empty;
      node.live <- node.live - 1

(* Descend to the node at [target_level], creating intermediate tables. *)
let rec descend t node vpn ~target_level =
  if node.level = target_level then node
  else begin
    let idx = index_at ~level:node.level vpn in
    match get node idx with
    | Table child -> descend t child vpn ~target_level
    | Leaf _ ->
        invalid_arg
          (Printf.sprintf "Page_table: vpn %d already covered by a level-%d leaf" vpn node.level)
    | Empty ->
        let child = take_node t (node.level - 1) in
        set node idx (Table child);
        t.n_tables <- t.n_tables + 1;
        descend t child vpn ~target_level
  end

let map t ~vpn ~size pte =
  if not pte.Pte.present then invalid_arg "Page_table.map: PTE must be present";
  if size = Tlb.Two_m && not (Addr.huge_aligned vpn) then
    invalid_arg "Page_table.map: hugepage VPN must be 2MiB-aligned";
  let level = leaf_level size in
  let node = descend t t.root vpn ~target_level:level in
  let idx = index_at ~level vpn in
  (match get node idx with
  | Table _ -> invalid_arg "Page_table.map: slot holds a page table"
  | Leaf _ -> invalid_arg (Printf.sprintf "Page_table.map: vpn %d already mapped" vpn)
  | Empty -> ());
  set node idx (Leaf (pte, size));
  t.n_mapped <- t.n_mapped + 1;
  t.ver <- t.ver + 1

(* Find the leaf covering vpn along with the path of (node, index) taken. *)
let find_leaf t vpn =
  let rec go node path =
    let idx = index_at ~level:node.level vpn in
    match get node idx with
    | Empty -> None
    | Leaf (pte, size) -> Some (node, idx, pte, size, path)
    | Table child -> go child ((node, idx) :: path)
  in
  go t.root []

(* The hot path: descend without materializing the (node, index) path that
   [find_leaf] builds for unmap's pruning — the level count alone gives
   [levels] (root is level 4, so a leaf at level L took 5 - L lookups). *)
let walk t ~vpn =
  let rec go node =
    match get node (index_at ~level:node.level vpn) with
    | Empty -> None
    | Leaf (pte, size) ->
        if pte.Pte.present then Some { pte; size; levels = 5 - node.level } else None
    | Table child -> go child
  in
  go t.root

(* Base VPN of the page a leaf at (level, idx along path) covers. *)
let leaf_base vpn = function Tlb.Four_k -> vpn | Tlb.Two_m -> vpn land lnot 511

let prune t path =
  (* Remove now-empty tables bottom-up; report whether any were freed.
     [live = 0] means every slot is [Empty], so the freed table is ready
     for reuse as it stands. *)
  let freed = ref false in
  List.iter
    (fun (node, idx) ->
      match get node idx with
      | Table child when child.live = 0 ->
          clear node idx;
          t.spare.(child.level) <- child :: t.spare.(child.level);
          t.n_tables <- t.n_tables - 1;
          t.n_tables_freed <- t.n_tables_freed + 1;
          freed := true
      | Table _ | Leaf _ | Empty -> ())
    path;
  !freed

let unmap t ~vpn ?(free_tables = false) () =
  match find_leaf t vpn with
  | None -> { removed = []; freed_tables = false }
  | Some (node, idx, pte, size, path) ->
      clear node idx;
      t.n_mapped <- t.n_mapped - 1;
      t.ver <- t.ver + 1;
      let freed = if free_tables then prune t ((node, idx) :: path) else false in
      { removed = [ (leaf_base vpn size, pte, size) ]; freed_tables = freed }

let unmap_range t ~vpn ~pages ?(free_tables = false) () =
  let removed = ref [] in
  let freed = ref false in
  let cursor = ref vpn in
  let stop = vpn + pages in
  while !cursor < stop do
    let r = unmap t ~vpn:!cursor ~free_tables () in
    (match r.removed with
    | [ (base, pte, size) ] ->
        removed := (base, pte, size) :: !removed;
        (* Skip past the removed page (a hugepage may extend beyond). *)
        cursor := Stdlib.max (!cursor + 1) (base + Addr.pages_of_size size)
    | _ -> incr cursor);
    if r.freed_tables then freed := true
  done;
  { removed = List.rev !removed; freed_tables = !freed }

(* Like [walk], descends without materializing [find_leaf]'s path — update
   never prunes, and the path's cons cells were a measurable share of the
   CoW-break allocation profile (fig9). The slot already holds a leaf, so
   assigning in place keeps [live] correct without going through [set]. *)
let update t ~vpn ~f =
  let rec go node =
    let idx = index_at ~level:node.level vpn in
    match get node idx with
    | Empty -> None
    | Leaf (pte, size) ->
        let pte' = f pte in
        put node idx (Leaf (pte', size));
        t.ver <- t.ver + 1;
        Some (pte, pte')
    | Table child -> go child
  in
  go t.root

let mapped_count t = t.n_mapped
let table_pages t = t.n_tables
let tables_freed t = t.n_tables_freed
let version t = t.ver

let iter t ~f =
  (* Reconstruct each leaf's base VPN from the index path. Visits slots in
     ascending index order, i.e. leaves in ascending VPN order. *)
  let rec go node base =
    for idx = 0 to 511 do
      let base' = base lor (idx lsl ((node.level - 1) * 9)) in
      match get node idx with
      | Empty -> ()
      | Leaf (pte, size) -> if pte.Pte.present then f base' pte size
      | Table child -> go child base'
    done
  in
  go t.root 0
