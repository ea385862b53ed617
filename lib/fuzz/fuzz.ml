(* Differential fuzzing of the shootdown protocol against a conservative
   oracle (ISSUE 4).

   Each seed deterministically generates a program: a random topology, a
   6-bit optimization combo ([seed mod 64]), a protocol backend (from seed
   bits 6.., a distinct axis so every (combo, backend) pair is reachable
   without aliasing — seeds 0..63 stay on the paper backend), a handful of
   worker
   threads pinned to distinct CPUs, and a sequence of kernel operations
   over the mm those workers share (plus any address spaces fork creates).
   The program is executed twice on machines that differ only in the flush
   protocol: the backend under test, and [Opts.oracle] — every PTE change
   one synchronous whole-TLB broadcast, nothing deferred, nothing
   skipped.

   Ops execute sequentially (a driver process hands one op at a time to
   the worker that owns it), so every op's functional result — the address
   mmap returns, the pfn an access observes, whether it faults — depends
   only on the op order and on no CPU ever using a stale translation.
   Concurrency still happens inside each op: the other workers spin in
   user mode servicing shootdown IPIs mid-[Cpu.compute], early-acked
   responder flushes outlive the initiator's return, deferred user-PCID
   flushes ride handler exits. A correct protocol therefore produces
   bit-identical observations and final state under both runs; any
   difference — or any Checker violation, or any quiescence-invariant
   failure in the optimized run — is a protocol bug.

   Ops reference regions symbolically (index mod live-region count), so
   any subsequence of a program is still executable: that is what lets
   the ddmin shrinker cut a failing program down to a minimal one. *)

(* ---------- programs ---------- *)

type op =
  | Op_mmap of { worker : int; pages : int; huge : bool }
  | Op_munmap of { worker : int; region : int }
  | Op_mprotect of { worker : int; region : int; writable : bool }
  | Op_mremap of { worker : int; region : int }
  | Op_reclaim of { worker : int; region : int }  (* madvise(DONTNEED) *)
  | Op_touch of { worker : int; region : int; page : int; write : bool }
  | Op_fork of { worker : int }
  | Op_cow_write of { worker : int; region : int; page : int }
  | Op_migrate of { worker : int; region : int }  (* page migration *)
  | Op_ksm of { worker : int; region : int }
  | Op_sched of { worker : int; cpu : int }  (* move worker to another CPU *)

type program = {
  p_seed : int;
  p_sockets : int;
  p_cores : int;
  p_smt : int;
  p_safe : bool;
  p_combo : int;  (* 6-bit optimization mask, see [program_opts] *)
  p_protocol : Opts.protocol;  (* backend under test, from seed bits 6.. *)
  p_inject_bug : bool;
  p_workers : int;
  p_tlb_capacity : int;  (* small TLBs force eviction + recycling paths *)
  p_flush_threshold : int;  (* flips ranged vs full decisions *)
  p_ops : op list;
}

let worker_of = function
  | Op_mmap { worker; _ }
  | Op_munmap { worker; _ }
  | Op_mprotect { worker; _ }
  | Op_mremap { worker; _ }
  | Op_reclaim { worker; _ }
  | Op_touch { worker; _ }
  | Op_fork { worker }
  | Op_cow_write { worker; _ }
  | Op_migrate { worker; _ }
  | Op_ksm { worker; _ }
  | Op_sched { worker; _ } ->
      worker

let pp_op fmt op =
  let f fmt' = Format.fprintf fmt fmt' in
  match op with
  | Op_mmap { worker; pages; huge } ->
      f "w%d: mmap %d pages%s" worker pages (if huge then " (huge)" else "")
  | Op_munmap { worker; region } -> f "w%d: munmap r%d" worker region
  | Op_mprotect { worker; region; writable } ->
      f "w%d: mprotect r%d %s" worker region (if writable then "rw" else "ro")
  | Op_mremap { worker; region } -> f "w%d: mremap r%d" worker region
  | Op_reclaim { worker; region } -> f "w%d: reclaim r%d" worker region
  | Op_touch { worker; region; page; write } ->
      f "w%d: %s r%d page %d" worker (if write then "write" else "read") region page
  | Op_fork { worker } -> f "w%d: fork (switch to child)" worker
  | Op_cow_write { worker; region; page } -> f "w%d: cow-write r%d page %d" worker region page
  | Op_migrate { worker; region } -> f "w%d: migrate r%d" worker region
  | Op_ksm { worker; region } -> f "w%d: ksm-merge r%d" worker region
  | Op_sched { worker; cpu } -> f "w%d: sched-migrate toward cpu%d" worker cpu

(* ---------- generation ---------- *)

let gen_program ?(max_ops = 32) ?(inject_bug = false) seed =
  let r = Rng.create ~seed:(Int64.of_int seed) in
  let combo = seed land 63 in
  (* The backend under test comes from disjoint seed bits (6..), so the
     protocol axis never aliases the optimization-combo axis: seeds
     0..63 exercise every combo on the paper backend, 64..127 on
     sync-broadcast, 128..191 on queue-spin, then the cycle repeats.
     The oracle is never the subject — it is always the reference. *)
  let protocols = [| Opts.Paper Opts.paper_baseline; Opts.Sync_broadcast; Opts.Queue_spin |] in
  let protocol = protocols.(seed lsr 6 mod Array.length protocols) in
  (* The injected bug drops deferred user flushes, which only exist under
     PTI with §3.4 on — force that combination so --inject-bug always
     demonstrates a divergence for the shrinker to minimize. *)
  let safe = if inject_bug then true else Rng.bool r ~p:0.7 in
  let combo = if inject_bug then combo lor 8 else combo in
  let sockets = 1 + Rng.int r 2 in
  let smt = 1 + Rng.int r 2 in
  let cores = 1 + Rng.int r (max 1 (8 / (sockets * smt))) in
  let sockets, cores, smt =
    if sockets * cores * smt < 2 then (1, 2, 1) else (sockets, cores, smt)
  in
  let n_cpus = sockets * cores * smt in
  let n_workers = min n_cpus (2 + Rng.int r 2) in
  let n_ops = 8 + Rng.int r (max 1 (max_ops - 8)) in
  let forks = ref 0 in
  let gen_op () =
    let worker = Rng.int r n_workers in
    let region = Rng.int r 8 in
    match Rng.int r 100 with
    | n when n < 30 ->
        Op_touch { worker; region; page = Rng.int r 16; write = Rng.bool r ~p:0.5 }
    | n when n < 42 ->
        Op_mmap { worker; pages = 1 + Rng.int r 8; huge = Rng.bool r ~p:0.08 }
    | n when n < 49 -> Op_munmap { worker; region }
    | n when n < 57 -> Op_mprotect { worker; region; writable = Rng.bool r ~p:0.5 }
    | n when n < 63 -> Op_mremap { worker; region }
    | n when n < 71 -> Op_reclaim { worker; region }
    | n when n < 77 && !forks < 3 ->
        incr forks;
        Op_fork { worker }
    | n when n < 85 -> Op_cow_write { worker; region; page = Rng.int r 16 }
    | n when n < 90 -> Op_migrate { worker; region }
    | n when n < 95 -> Op_ksm { worker; region }
    | _ -> Op_sched { worker; cpu = Rng.int r n_cpus }
  in
  let ops =
    (* Lead with one mapping per worker so early ops have something to hit. *)
    List.init n_workers (fun w -> Op_mmap { worker = w; pages = 4; huge = false })
    @ List.init n_ops (fun _ -> gen_op ())
  in
  {
    p_seed = seed;
    p_sockets = sockets;
    p_cores = cores;
    p_smt = smt;
    p_safe = safe;
    p_combo = combo;
    p_protocol = protocol;
    p_inject_bug = inject_bug;
    p_workers = n_workers;
    p_tlb_capacity = Rng.choose r [| 16; 32; 64; 1536 |];
    p_flush_threshold = Rng.choose r [| 1; 4; 33 |];
    p_ops = ops;
  }

(* ---------- execution ---------- *)

type exec_result = {
  xr_obs : string array;  (* one observation per op, "" if never ran *)
  xr_final : string list;  (* page tables + frame census at quiescence *)
  xr_violations : string list;
  xr_invariants : string list;
  xr_crash : string option;
}

type region = { mutable r_addr : int; mutable r_pages : int; r_huge : bool }

(* How long (simulated cycles) the driver waits for one op before declaring
   the run wedged, a whole number of its 200-cycle polls. Generous: oracle
   broadcasts make everything slow. *)
let op_wait_cycles = 10_000_000

let execute ~opts program =
  let topo = Topology.create ~sockets:program.p_sockets ~cores_per_socket:program.p_cores
      ~smt:program.p_smt
  in
  let opts = { opts with Opts.full_flush_threshold = program.p_flush_threshold } in
  let m =
    Machine.create ~topo ~frames:4096 ~seed:(Int64.of_int program.p_seed)
      ~tlb_capacity:program.p_tlb_capacity ~opts ()
  in
  let n_cpus = Machine.n_cpus m in
  let mm0 = Machine.new_mm m in
  let ops = Array.of_list program.p_ops in
  let obs = Array.make (Array.length ops) "" in
  let crash = ref None in
  let nw = program.p_workers in
  let wcpu = Array.init nw (fun w -> w) in
  let wmm = Array.make nw mm0 in
  let occupied = Array.init n_cpus (fun c -> c < nw) in
  let cmd = Array.make nw None in
  let stop = ref false in
  (* Live regions per address space, in creation order (symbolic region
     indices resolve into this, so both runs resolve identically as long
     as their observations agree — and the first disagreement is exactly
     what the diff reports). *)
  let regions : (int, region list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace regions (Mm_struct.id mm0) (ref []);
  let region_list mm_id =
    match Hashtbl.find_opt regions mm_id with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace regions mm_id l;
        l
  in
  let pick_region ~mm_id ~idx ~small_only =
    let rs = !(region_list mm_id) in
    let rs = if small_only then List.filter (fun r -> not r.r_huge) rs else rs in
    match rs with [] -> None | l -> Some (List.nth l (idx mod List.length l))
  in
  let note i s = obs.(i) <- s in
  (* Leave user mode the way the exit trampoline discipline demands, run
     [body] in kernel context, and come back via return_to_user. *)
  let in_kernel w body =
    let cpu_t () = Machine.cpu m wcpu.(w) in
    Cpu.quiesce_and_mask (cpu_t ());
    Cpu.set_in_user (cpu_t ()) false;
    Shootdown.flush_pending_user m ~cpu:wcpu.(w) ~has_stack:true;
    Cpu.irq_enable (cpu_t ());
    body ();
    Shootdown.return_to_user m ~cpu:wcpu.(w) ~has_stack:true
  in
  let run_op w i op =
    let cpu = wcpu.(w) in
    let mm = wmm.(w) in
    let mm_id = Mm_struct.id mm in
    try
      match op with
      | Op_mmap { pages; huge; _ } ->
          let pages = if huge then Addr.pages_per_huge else pages in
          let addr =
            if huge then Syscall.mmap m ~cpu ~pages ~page_size:Tlb.Two_m ()
            else Syscall.mmap m ~cpu ~pages ()
          in
          let l = region_list mm_id in
          l := !l @ [ { r_addr = addr; r_pages = pages; r_huge = huge } ];
          note i (Printf.sprintf "mmap -> 0x%x/%d%s" addr pages (if huge then "H" else ""))
      | Op_munmap { region; _ } -> (
          match pick_region ~mm_id ~idx:region ~small_only:false with
          | None -> note i "munmap: no region"
          | Some r ->
              Syscall.munmap m ~cpu ~addr:r.r_addr ~pages:r.r_pages;
              let l = region_list mm_id in
              l := List.filter (fun r' -> r' != r) !l;
              note i (Printf.sprintf "munmap 0x%x/%d" r.r_addr r.r_pages))
      | Op_mprotect { region; writable; _ } -> (
          match pick_region ~mm_id ~idx:region ~small_only:true with
          | None -> note i "mprotect: no region"
          | Some r ->
              Syscall.mprotect m ~cpu ~addr:r.r_addr ~pages:r.r_pages ~writable;
              note i (Printf.sprintf "mprotect 0x%x/%d %b" r.r_addr r.r_pages writable))
      | Op_mremap { region; _ } -> (
          match pick_region ~mm_id ~idx:region ~small_only:true with
          | None -> note i "mremap: no region"
          | Some r ->
              let naddr = Syscall.mremap m ~cpu ~addr:r.r_addr ~pages:r.r_pages in
              let oaddr = r.r_addr in
              r.r_addr <- naddr;
              note i (Printf.sprintf "mremap 0x%x -> 0x%x/%d" oaddr naddr r.r_pages))
      | Op_reclaim { region; _ } -> (
          match pick_region ~mm_id ~idx:region ~small_only:true with
          | None -> note i "reclaim: no region"
          | Some r ->
              Syscall.madvise_dontneed m ~cpu ~addr:r.r_addr ~pages:r.r_pages;
              note i (Printf.sprintf "reclaim 0x%x/%d" r.r_addr r.r_pages))
      | Op_touch { region; page; _ } | Op_cow_write { region; page; _ } -> (
          let write = match op with Op_touch { write; _ } -> write | _ -> true in
          match pick_region ~mm_id ~idx:region ~small_only:false with
          | None -> note i "touch: no region"
          | Some r -> (
              let vaddr = r.r_addr + (page mod r.r_pages * Addr.page_size) in
              try
                let pfn = Access.translate m ~cpu ~vaddr ~write in
                note i
                  (Printf.sprintf "%s 0x%x -> pfn %d"
                     (if write then "write" else "read")
                     vaddr pfn)
              with Fault.Segfault _ -> note i (Printf.sprintf "touch 0x%x -> SEGV" vaddr)))
      | Op_fork _ ->
          let child = Fork.fork m ~cpu in
          let child_id = Mm_struct.id child in
          let parent_regions = !(region_list mm_id) in
          let l = region_list child_id in
          l :=
            List.map
              (fun r -> { r_addr = r.r_addr; r_pages = r.r_pages; r_huge = r.r_huge })
              parent_regions;
          (* this worker runs the child from here on *)
          in_kernel w (fun () ->
              Sched.switch_mm m ~cpu child;
              wmm.(w) <- child);
          note i (Printf.sprintf "fork -> mm%d" child_id)
      | Op_migrate { region; _ } -> (
          match pick_region ~mm_id ~idx:region ~small_only:true with
          | None -> note i "migrate: no region"
          | Some r ->
              let n =
                Migrate.migrate_range m ~cpu ~mm ~vpn:(Addr.vpn_of_addr r.r_addr)
                  ~pages:r.r_pages
              in
              note i (Printf.sprintf "migrate 0x%x/%d -> %d moved" r.r_addr r.r_pages n))
      | Op_ksm { region; _ } -> (
          match pick_region ~mm_id ~idx:region ~small_only:true with
          | None -> note i "ksm: no region"
          | Some r ->
              let n =
                Ksm.dedup_range m ~cpu ~mm ~vpn:(Addr.vpn_of_addr r.r_addr) ~pages:r.r_pages
              in
              note i (Printf.sprintf "ksm 0x%x/%d -> %d merged" r.r_addr r.r_pages n))
      | Op_sched { cpu = want; _ } ->
          (* First unoccupied CPU scanning from the wanted one: resolution
             is a pure function of worker placement, identical across runs. *)
          let target = ref None in
          for k = 0 to n_cpus - 1 do
            let c = (want + k) mod n_cpus in
            if Option.is_none !target && not occupied.(c) then target := Some c
          done;
          (match !target with
          | None -> note i "sched: no free cpu"
          | Some c ->
              in_kernel w (fun () ->
                  let old = wcpu.(w) in
                  Sched.unload m ~cpu:old;
                  Cpu.vacate (Machine.cpu m old);
                  occupied.(old) <- false;
                  occupied.(c) <- true;
                  wcpu.(w) <- c;
                  Cpu.occupy (Machine.cpu m c);
                  Sched.switch_mm m ~cpu:c wmm.(w));
              note i (Printf.sprintf "sched cpu%d -> cpu%d" cpu c))
    with
    | Fault.Segfault { sf_vaddr; _ } -> note i (Printf.sprintf "op SEGV at 0x%x" sf_vaddr)
    | e -> note i (Printf.sprintf "op EXN %s" (Printexc.to_string e))
  in
  for w = 0 to nw - 1 do
    Process.spawn m.Machine.engine ~name:(Printf.sprintf "fuzz-w%d" w) (fun () ->
        Cpu.occupy (Machine.cpu m wcpu.(w));
        Sched.switch_mm m ~cpu:wcpu.(w) wmm.(w);
        Shootdown.return_to_user m ~cpu:wcpu.(w) ~has_stack:true;
        while not !stop do
          match cmd.(w) with
          | Some (i, op) ->
              run_op w i op;
              cmd.(w) <- None
          | None ->
              Cpu.compute_until (Machine.cpu m wcpu.(w)) ~quantum:50 ~chunk:100 (fun () ->
                  !stop || Option.is_some cmd.(w))
        done;
        let c = wcpu.(w) in
        (* Exit through the trampoline so any §3.4 deferral drains. *)
        Shootdown.return_to_user m ~cpu:c ~has_stack:true;
        Cpu.set_in_user (Machine.cpu m c) false;
        Sched.unload m ~cpu:c;
        Cpu.vacate (Machine.cpu m c))
  done;
  Process.spawn m.Machine.engine ~name:"fuzz-driver" (fun () ->
      (try
         Array.iteri
           (fun i op ->
             if Option.is_none !crash then begin
               let w = worker_of op mod nw in
               cmd.(w) <- Some (i, op);
               (* Poll every 200 cycles until the worker takes the op or
                  the wait times out: an idle spin whose one chunk ends at
                  the timeout. *)
               ignore
                 (Process.spin m.Machine.engine ~quantum:200 ~chunk:op_wait_cycles
                    ~left:op_wait_cycles
                    (fun () -> Option.is_none cmd.(w))
                    (fun () -> true));
               if Option.is_some cmd.(w) then
                 crash := Some (Printf.sprintf "op %d (%s) wedged" i (Format.asprintf "%a" pp_op op))
             end)
           ops
       with e -> crash := Some ("driver EXN " ^ Printexc.to_string e));
      stop := true);
  (try Kernel.run m with e -> if Option.is_none !crash then crash := Some (Printexc.to_string e));
  let final = ref [] in
  let mm_ids =
    Hashtbl.fold (fun id _ acc -> id :: acc) m.Machine.mms [] |> List.sort Int.compare
  in
  List.iter
    (fun id ->
      match Machine.mm_by_id m id with
      | None -> ()
      | Some mm ->
          let pt = Mm_struct.page_table mm in
          let lines = ref [] in
          Page_table.iter pt ~f:(fun vpn pte ->
              lines :=
                Printf.sprintf "mm%d vpn=%d pfn=%d w=%b %s" id vpn (Pte.pfn pte)
                  (Pte.writable pte)
                  (match Pte.size pte with Tlb.Four_k -> "4k" | Tlb.Two_m -> "2m")
                :: !lines);
          final := List.sort String.compare !lines @ !final)
    (List.sort Int.compare mm_ids);
  final := Printf.sprintf "frames allocated=%d" (Frame_alloc.allocated m.Machine.frames) :: !final;
  let invariants = ref [] in
  Kernel.check_quiescent m (fun s -> invariants := s :: !invariants);
  {
    xr_obs = obs;
    xr_final = List.rev !final;
    xr_violations =
      List.map
        (fun v -> Format.asprintf "%a" Checker.pp_violation v)
        (Checker.violations m.Machine.checker);
    xr_invariants = List.rev !invariants;
    xr_crash = !crash;
  }

(* ---------- differential comparison ---------- *)

let first_obs_mismatch a b =
  let n = min (Array.length a.xr_obs) (Array.length b.xr_obs) in
  let rec go i =
    if i >= n then None
    else if not (String.equal a.xr_obs.(i) b.xr_obs.(i)) then
      Some (i, a.xr_obs.(i), b.xr_obs.(i))
    else go (i + 1)
  in
  go 0

(* All the reasons the optimized run disagrees with the oracle; [] = pass. *)
let compare_runs ~optimized ~oracle =
  let reasons = ref [] in
  let add fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
  (match (optimized.xr_crash, oracle.xr_crash) with
  | None, None -> ()
  | Some c, None -> add "optimized run crashed: %s" c
  | None, Some c -> add "oracle run crashed: %s" c
  | Some a, Some b ->
      if not (String.equal a b) then add "both crashed differently: %s / %s" a b);
  List.iter (fun v -> add "checker violation (optimized): %s" v) optimized.xr_violations;
  List.iter (fun v -> add "checker violation (ORACLE -- harness bug?): %s" v) oracle.xr_violations;
  List.iter (fun s -> add "invariant (optimized): %s" s) optimized.xr_invariants;
  (match first_obs_mismatch optimized oracle with
  | Some (i, a, b) -> add "op %d observed %S under optimized but %S under oracle" i a b
  | None -> ());
  if not (List.equal String.equal optimized.xr_final oracle.xr_final) then begin
    let diff =
      List.filter (fun l -> not (List.mem l oracle.xr_final)) optimized.xr_final
      @ List.filter (fun l -> not (List.mem l optimized.xr_final)) oracle.xr_final
    in
    match diff with
    | [] -> add "final state differs (ordering)"
    | l :: _ -> add "final state differs, e.g. %S" l
  end;
  List.rev !reasons

(* Combo bit [i] sets row [i] of [Opts.techniques] (1 concurrent, 2
   early-ack, 4 cacheline, 8 in-context, 16 cow, 32 batching) where the
   backend honours it: all six under paper, only in-context under
   sync-broadcast and queue-spin. The other bits are drawn all the same, so
   the generator's RNG stream does not depend on the backend. *)
let program_opts program =
  let protocol = program.p_protocol in
  let o = ref (Opts.with_protocol protocol ~safe:program.p_safe) in
  List.iteri
    (fun i sw ->
      if Opts.honours protocol sw then
        o := sw.Opts.set !o (program.p_combo land (1 lsl i) <> 0))
    Opts.techniques;
  { !o with Opts.fault = (if program.p_inject_bug then Some Opts.Skip_deferred_flush else None) }

let run_program program =
  let optimized = execute program ~opts:(program_opts program) in
  let oracle = execute program ~opts:(Opts.oracle ~safe:program.p_safe) in
  compare_runs ~optimized ~oracle

(* ---------- shrinking (ddmin) ---------- *)

let shrink_ops ~still_fails ops =
  let rec go ops n =
    let len = List.length ops in
    if len <= 1 || n > len then ops
    else begin
      let chunk = max 1 (len / n) in
      let rec try_remove i =
        if i * chunk >= len then None
        else begin
          let lo = i * chunk and hi = min len ((i + 1) * chunk) in
          let cand = List.filteri (fun j _ -> j < lo || j >= hi) ops in
          if List.length cand < len && still_fails cand then Some cand else try_remove (i + 1)
        end
      in
      match try_remove 0 with
      | Some cand -> go cand (max 2 (n - 1))
      | None -> if chunk = 1 then ops else go ops (min len (2 * n))
    end
  in
  go ops 2

let shrink_program program =
  let still_fails ops = not (List.is_empty (run_program { program with p_ops = ops })) in
  shrink_ops ~still_fails program.p_ops

(* ---------- top-level driving ---------- *)

type failure = {
  f_seed : int;
  f_inject_bug : bool;
  f_reasons : string list;
  f_program : program;
  f_shrunk : op list option;
}

type report = { tested : int; failures : failure list }

let check_seed ?(max_ops = 32) ?(inject_bug = false) ?(shrink = true) seed =
  let program = gen_program ~max_ops ~inject_bug seed in
  match run_program program with
  | [] -> None
  | reasons ->
      let shrunk = if shrink then Some (shrink_program program) else None in
      Some { f_seed = seed; f_inject_bug = inject_bug; f_reasons = reasons;
             f_program = program; f_shrunk = shrunk }

let run_seeds ?(seed_base = 0) ?(count = 500) ?(jobs = 1) ?(max_ops = 32)
    ?(inject_bug = false) ?(shrink = true) () =
  let tasks =
    Array.init count (fun i -> fun () -> check_seed ~max_ops ~inject_bug ~shrink (seed_base + i))
  in
  let results = Domain_pool.run ~jobs tasks in
  { tested = count; failures = Array.to_list results |> List.filter_map Fun.id }

let replay_command f =
  Printf.sprintf "tlbsim fuzz --seed %d --replay%s" f.f_seed
    (if f.f_inject_bug then " --inject-bug" else "")

let pp_program fmt p =
  Format.fprintf fmt
    "seed %d: topo %dx%dx%d, %s mode, proto %s, combo %d [%a], %d workers, tlb %d, \
     threshold %d, %d ops"
    p.p_seed p.p_sockets p.p_cores p.p_smt
    (if p.p_safe then "safe" else "unsafe")
    (Opts.protocol_label p.p_protocol)
    p.p_combo Opts.pp (program_opts p) p.p_workers p.p_tlb_capacity p.p_flush_threshold
    (List.length p.p_ops)

let pp_failure fmt f =
  Format.fprintf fmt "@[<v>FAIL %a@," pp_program f.f_program;
  List.iter (fun r -> Format.fprintf fmt "  %s@," r) f.f_reasons;
  (match f.f_shrunk with
  | None -> ()
  | Some ops ->
      Format.fprintf fmt "  minimal reproducer (%d ops):@," (List.length ops);
      List.iter (fun op -> Format.fprintf fmt "    %a@," pp_op op) ops);
  Format.fprintf fmt "  replay: %s@]" (replay_command f)
