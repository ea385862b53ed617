(* Helpers shared by several test suites. *)

(* Run [f] at [now + delay] through the engine's tagged dispatch: a
   handler registered for this one event, released when it fires. *)
let schedule e ~delay f =
  let tag = ref (-1) in
  tag :=
    Engine.register_handler e (fun _ _ ->
        Engine.release_handler e !tag;
        f ());
  Engine.schedule_tag e ~delay ~tag:!tag ~a:0 ~b:0

(* Post [irq] to every CPU in [targets] through the APIC's send path, as
   the shootdown protocol does: register the irq, then multicast to the
   target set. Returns the sender's cost. *)
let send_ipi apic ~from ~targets irq =
  let set = Cpuset.create ~bits:0 in
  List.iter (Cpuset.set set) targets;
  Apic.send_ipi_id apic ~from ~targets:set ~irq_id:(Apic.register_irq apic irq)

(* A kernel-context process on [cpu]: it occupies the CPU in kernel mode
   and touches no address-space state. *)
let spawn_kernel m ~cpu ~name body =
  Process.spawn m.Machine.engine ~name (fun () ->
      let cpu_t = Machine.cpu m cpu in
      Cpu.occupy cpu_t;
      Cpu.set_in_user cpu_t false;
      Fun.protect ~finally:(fun () -> Cpu.vacate cpu_t) body)

(* An IRQ whose handler calls [f] at its start, takes [cycles] (none by
   default) and then calls [at_end]: the step-function form of a handler
   [f cpu; Process.delay e cycles; at_end cpu]. The CPU counts the
   handler's phase, so one record may run on several CPUs at once. *)
let irq ?(maskable = true) ?(cycles = 0) ?(at_end = ignore) vector f =
  let step cpu k =
    if k = 0 then begin
      f cpu;
      cycles
    end
    else begin
      at_end cpu;
      -1
    end
  in
  { Cpu.vector; maskable; step }

module Int_map = Map.Make (Int)

(* A reference model of [Page_table]: leaves in a map keyed by base VPN,
   each with its payload (a frame number or the whole PTE), and tables as
   a set of (level, prefix), where a level-[l] table covers the VPNs with
   prefix [vpn lsr (9 * l)]. *)
module Pt_model = struct
  type 'a t = {
    mutable leaves : ('a * Tlb.page_size) Int_map.t;  (** base vpn -> leaf, size *)
    mutable tables : (int * int) list;  (** (level, prefix) *)
    mutable freed : int;
  }

  let create () = { leaves = Int_map.empty; tables = []; freed = 0 }
  let prefix level vpn = vpn lsr (9 * level)
  let has_table m level vpn = List.mem (level, prefix level vpn) m.tables

  let add_table m level vpn =
    if not (has_table m level vpn) then m.tables <- (level, prefix level vpn) :: m.tables

  let covering m vpn =
    match Int_map.find_opt vpn m.leaves with
    | Some (leaf, Tlb.Four_k) -> Some (vpn, leaf, Tlb.Four_k)
    | Some (_, Tlb.Two_m) | None -> (
        let base = vpn land lnot 511 in
        match Int_map.find_opt base m.leaves with
        | Some (leaf, Tlb.Two_m) -> Some (base, leaf, Tlb.Two_m)
        | Some (_, Tlb.Four_k) | None -> None)

  (* [None] when the page table must refuse the mapping. *)
  let map m ~vpn ~size leaf =
    let refused =
      match size with
      | Tlb.Four_k -> Option.is_some (covering m vpn)
      | Tlb.Two_m -> Int_map.mem vpn m.leaves || has_table m 1 vpn
    in
    if refused then None
    else begin
      add_table m 3 vpn;
      add_table m 2 vpn;
      if size = Tlb.Four_k then add_table m 1 vpn;
      m.leaves <- Int_map.add vpn (leaf, size) m.leaves;
      Some ()
    end

  let table_empty m level p =
    let leaf_level = function Tlb.Four_k -> 1 | Tlb.Two_m -> 2 in
    not
      (Int_map.exists
         (fun vpn (_, size) -> leaf_level size <= level && prefix level vpn = p)
         m.leaves
      || List.exists (fun (l, q) -> l = level - 1 && q lsr 9 = p) m.tables)

  let unmap m ~vpn ~free_tables =
    match covering m vpn with
    | None -> ([], false)
    | Some (base, leaf, size) ->
        m.leaves <- Int_map.remove base m.leaves;
        let freed = ref false in
        if free_tables then
          List.iter
            (fun level ->
              let p = prefix level base in
              if has_table m level base && table_empty m level p then begin
                m.tables <- List.filter (fun t -> t <> (level, p)) m.tables;
                m.freed <- m.freed + 1;
                freed := true
              end)
            (if size = Tlb.Four_k then [ 1; 2; 3 ] else [ 2; 3 ]);
        ([ (base, leaf, size) ], !freed)

  (* [Some old] after replacing the leaf covering [vpn] with [f old]. *)
  let update m ~vpn f =
    match covering m vpn with
    | None -> None
    | Some (base, leaf, size) ->
        m.leaves <- Int_map.add base (f leaf, size) m.leaves;
        Some leaf

  let unmap_range m ~vpn ~pages ~free_tables =
    let removed = ref [] and freed = ref false and cursor = ref vpn in
    while !cursor < vpn + pages do
      let r, f = unmap m ~vpn:!cursor ~free_tables in
      (match r with
      | [ (base, _, size) ] ->
          removed := List.hd r :: !removed;
          cursor := Stdlib.max (!cursor + 1) (base + Addr.pages_of_size size)
      | _ -> incr cursor);
      if f then freed := true
    done;
    (List.rev !removed, !freed)
end

(* Does [info] cover 4 KiB page [vpn]? A full flush covers every page. *)
let flush_covers (info : Flush_info.t) ~vpn =
  info.Flush_info.full
  || (vpn >= info.Flush_info.start_vpn
     && vpn < info.Flush_info.start_vpn + Flush_info.span_4k info)
