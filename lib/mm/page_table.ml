(* tlblint: proven-bounds — [index_at] masks to 9 bits (land 511), and the
   loops in [zap] and [iter_node] run over slots 0..511, so a slot index
   splits into a chunk index [idx lsr 6] < 8, the length of every
   [ptes]/[kids] index, and a chunk offset [idx land 63] < 64, the length
   of every chunk; these are the only indices fed to Array.unsafe_get. *)
(* A node is a real 512-slot table, exactly like the x86-64 structure it
   models: [index_at] produces 9-bit indices, so flat arrays replace the
   hashtable this used — [walk] is the hottest lookup in page-fault-heavy
   workloads and generic hashing of the index was a measurable share of it.
   The 512 slots are eight 64-slot chunks, each allocated on its first
   write. A slot holds a leaf (a present PTE, in [ptes], at levels 1 and 2)
   or a child table (in [kids], at levels 2 to 4), never both. Until its
   first write a chunk is [no_ptes] or [no_kids], which every node shares
   and nothing writes, and a level without leaves or without children
   keeps a shared index of them. A fresh level-1, -3 or -4 table thus
   costs a record, one chunk index and one chunk, 80 minor-heap words, a
   level-2 one 9 more for its second index; one 512-slot array would be a
   513-word allocation straight into the major heap. [live] counts
   occupied slots so emptiness checks stay O(1). *)
type node = {
  level : int;
  mutable live : int;
  ptes : Pte.t array array;
  kids : node array array;
  mutable next_spare : node; (* the next freed table, while this one is spare *)
}

let rec no_node = { level = 0; live = 0; ptes = [||]; kids = [||]; next_spare = no_node }
let no_ptes : Pte.t array = Array.make 64 Pte.none
let no_kids = Array.make 64 no_node
let no_pte_chunks = Array.make 8 no_ptes
let no_kid_chunks = Array.make 8 no_kids

type t = {
  root : node;  (* level 4 *)
  spare : node array;
      (* [spare.(l)]: a stack of freed level-[l] tables linked through
         [next_spare], [no_node] when empty. A spare table has all slots
         empty and keeps its chunks for the next table this tree needs at
         that level, so unmap-then-map churn (apache's per-request mmap)
         allocates nothing per request. *)
  mutable n_mapped : int;
  mutable n_tables : int;
  mutable n_tables_freed : int;
  mutable ver : int;
}

let index_at ~level vpn = (vpn lsr ((level - 1) * 9)) land 511

let fresh_node level =
  {
    level;
    live = 0;
    ptes = (if level <= 2 then Array.make 8 no_ptes else no_pte_chunks);
    kids = (if level >= 2 then Array.make 8 no_kids else no_kid_chunks);
    next_spare = no_node;
  }

let pte_at node idx =
  Array.unsafe_get (Array.unsafe_get node.ptes (idx lsr 6)) (idx land 63)

let kid_at node idx =
  Array.unsafe_get (Array.unsafe_get node.kids (idx lsr 6)) (idx land 63)

(* The chunk holding slot [idx] of [chunks], allocated from [empty] if this
   is its first write. *)
let chunk_for_write chunks empty idx =
  let c = Array.unsafe_get chunks (idx lsr 6) in
  if c != empty then c
  else begin
    let c = Array.make 64 (Array.unsafe_get empty 0) in
    Array.unsafe_set chunks (idx lsr 6) c;
    c
  end

(* Overwrite a leaf slot, whose chunk is allocated since it holds a leaf. *)
let put_pte node idx pte =
  Array.unsafe_set (Array.unsafe_get node.ptes (idx lsr 6)) (idx land 63) pte

let create () =
  {
    root = fresh_node 4;
    spare = Array.make 4 no_node;
    n_mapped = 0;
    n_tables = 0;
    ver = 0;
    n_tables_freed = 0;
  }

let take_node t level =
  let node = t.spare.(level) in
  if node == no_node then fresh_node level
  else begin
    t.spare.(level) <- node.next_spare;
    node.next_spare <- no_node;
    node
  end

let leaf_level = function Tlb.Four_k -> 1 | Tlb.Two_m -> 2

(* Descend to the node at [target_level], creating intermediate tables. *)
let rec descend t node vpn ~target_level =
  if node.level = target_level then node
  else begin
    let idx = index_at ~level:node.level vpn in
    let kid = kid_at node idx in
    if kid != no_node then descend t kid vpn ~target_level
    else if Pte.present (pte_at node idx) then
      invalid_arg
        (Printf.sprintf "Page_table: vpn %d already covered by a level-%d leaf" vpn
           node.level)
    else begin
      let kid = take_node t (node.level - 1) in
      Array.unsafe_set (chunk_for_write node.kids no_kids idx) (idx land 63) kid;
      node.live <- node.live + 1;
      t.n_tables <- t.n_tables + 1;
      descend t kid vpn ~target_level
    end
  end

let map t ~vpn ~size pte =
  if not (Pte.present pte) then invalid_arg "Page_table.map: PTE must be present";
  if size = Tlb.Two_m && not (Addr.huge_aligned vpn) then
    invalid_arg "Page_table.map: hugepage VPN must be 2MiB-aligned";
  let level = leaf_level size in
  let node = descend t t.root vpn ~target_level:level in
  let idx = index_at ~level vpn in
  if kid_at node idx != no_node then
    invalid_arg "Page_table.map: slot holds a page table";
  if Pte.present (pte_at node idx) then
    invalid_arg (Printf.sprintf "Page_table.map: vpn %d already mapped" vpn);
  Array.unsafe_set
    (chunk_for_write node.ptes no_ptes idx)
    (idx land 63) (Pte.with_size pte size);
  node.live <- node.live + 1;
  t.n_mapped <- t.n_mapped + 1;
  t.ver <- t.ver + 1

(* The node whose slot holds the leaf covering [vpn], or [no_node]. *)
let rec leaf_node node vpn =
  let idx = index_at ~level:node.level vpn in
  if Pte.present (pte_at node idx) then node
  else if node.level = 1 then no_node
  else begin
    let kid = kid_at node idx in
    if kid == no_node then no_node else leaf_node kid vpn
  end

let walk t ~vpn =
  let node = leaf_node t.root vpn in
  if node == no_node then Pte.none else pte_at node (index_at ~level:node.level vpn)

let update t ~vpn ~f =
  let node = leaf_node t.root vpn in
  if node == no_node then Pte.none
  else begin
    let idx = index_at ~level:node.level vpn in
    let pte = pte_at node idx in
    let pte' = f pte in
    if not (Pte.present pte') || Pte.size pte' != Pte.size pte then
      invalid_arg "Page_table.update: f must keep the PTE present and its size";
    put_pte node idx pte';
    t.ver <- t.ver + 1;
    pte
  end

let ignore_leaf (_ : int) (_ : Pte.t) = ()

(* Take child table [kid] out of slot [idx] of [node]: its slots are all
   empty ([live = 0]), so it is ready for reuse as it stands. *)
let free_kid t node idx kid =
  Array.unsafe_set (Array.unsafe_get node.kids (idx lsr 6)) (idx land 63) no_node;
  node.live <- node.live - 1;
  kid.next_spare <- t.spare.(kid.level);
  t.spare.(kid.level) <- kid;
  t.n_tables <- t.n_tables - 1;
  t.n_tables_freed <- t.n_tables_freed + 1

(* Remove every leaf below [node], whose first VPN is [base], that
   intersects \[lo, hi), in ascending VPN order. With [free_tables], a
   child table that lost a leaf and is left empty is freed after its
   subtree, which frees exactly the tables that unmapping those leaves
   one at a time would. Returns whether any table was freed. *)
let rec zap t node base lo hi free_tables f =
  let shift = (node.level - 1) * 9 in
  let first = if lo <= base then 0 else (lo - base) lsr shift in
  let last = Int.min 511 ((hi - 1 - base) lsr shift) in
  let freed = ref false in
  for c = first lsr 6 to last lsr 6 do
    let ptes = Array.unsafe_get node.ptes c and kids = Array.unsafe_get node.kids c in
    if ptes != no_ptes || kids != no_kids then
      for idx = Int.max first (c lsl 6) to Int.min last ((c lsl 6) + 63) do
        let vbase = base lor (idx lsl shift) in
        let pte = Array.unsafe_get ptes (idx land 63) in
        if Pte.present pte then begin
          Array.unsafe_set ptes (idx land 63) Pte.none;
          node.live <- node.live - 1;
          t.n_mapped <- t.n_mapped - 1;
          t.ver <- t.ver + 1;
          f vbase pte
        end
        else begin
          let kid = Array.unsafe_get kids (idx land 63) in
          if kid != no_node then begin
            let mapped = t.n_mapped in
            if zap t kid vbase lo hi free_tables f then freed := true;
            if free_tables && kid.live = 0 && t.n_mapped < mapped then begin
              free_kid t node idx kid;
              freed := true
            end
          end
        end
      done
  done;
  !freed

let unmap_range t ~vpn ~pages ~free_tables ~f =
  pages > 0 && zap t t.root 0 vpn (vpn + pages) free_tables f

let unmap t ~vpn ?(free_tables = false) ?(f = ignore_leaf) () =
  zap t t.root 0 vpn (vpn + 1) free_tables f

let mapped_count t = t.n_mapped
let table_pages t = t.n_tables
let tables_freed t = t.n_tables_freed
let version t = t.ver

(* Visits slots in ascending index order, i.e. leaves in ascending VPN
   order, and only chunks that have been written. *)
let rec iter_node node base f =
  let shift = (node.level - 1) * 9 in
  for c = 0 to 7 do
    let ptes = Array.unsafe_get node.ptes c and kids = Array.unsafe_get node.kids c in
    if ptes != no_ptes || kids != no_kids then
      for i = 0 to 63 do
        let vbase = base lor (((c lsl 6) lor i) lsl shift) in
        let pte = Array.unsafe_get ptes i in
        if Pte.present pte then f vbase pte
        else begin
          let kid = Array.unsafe_get kids i in
          if kid != no_node then iter_node kid vbase f
        end
      done
  done

let iter t ~f = iter_node t.root 0 f
