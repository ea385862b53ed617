type t = {
  invlpg : int;
  invpcid_single : int;
  invpcid_full : int;
  cr3_write : int;
  lfence : int;
  page_walk : int;
  page_walk_cold : int;
  atomic_op : int;
  mem_access : int;
  page_copy : int;
  page_zero : int;
  io_page : int;
  fsync_fixed : int;
  line_local : int;
  line_smt : int;
  line_same_socket : int;
  line_cross_socket : int;
  icr_write : int;
  ipi_fixed : int;
  ipi_smt : int;
  ipi_same_socket : int;
  ipi_cross_socket : int;
  syscall_entry_unsafe : int;
  syscall_exit_unsafe : int;
  syscall_entry_safe : int;
  syscall_exit_safe : int;
  irq_entry_kernel_unsafe : int;
  irq_entry_user_unsafe : int;
  irq_entry_kernel_safe : int;
  irq_entry_user_safe : int;
  irq_exit : int;
  lock_uncontended : int;
  spin_poll : int;
  zap_pte : int;
  fault_fixed : int;
  fault_fixed_safe_extra : int;
  vma_op : int;
  context_switch : int;
}

(* Calibration anchors from the paper itself: a single-PTE flush "can take
   over 100ns" and 33 entries "over 3us" (§3.1) — roughly 250-300 cycles
   per INVLPG at 2 GHz; INVPCID single-address is slower than INVLPG by
   100+ cycles (§3.4, §5.1 measures ~110/PTE); IPI delivery "often takes
   more time (potentially over 1000 cycles) than TLB flushing" (§3.2);
   shootdowns cost "several thousand cycles" end to end (§2.3.2). *)
let default =
  {
    invlpg = 260;
    invpcid_single = 400;
    invpcid_full = 380;
    cr3_write = 250;
    lfence = 40;
    page_walk = 120;
    page_walk_cold = 220;
    atomic_op = 30;
    mem_access = 4;
    page_copy = 1100;
    page_zero = 600;
    io_page = 4500;
    fsync_fixed = 40000;
    line_local = 15;
    line_smt = 25;
    line_same_socket = 70;
    line_cross_socket = 150;
    icr_write = 120;
    ipi_fixed = 250;
    ipi_smt = 200;
    ipi_same_socket = 450;
    ipi_cross_socket = 650;
    syscall_entry_unsafe = 70;
    syscall_exit_unsafe = 60;
    syscall_entry_safe = 300;
    syscall_exit_safe = 260;
    irq_entry_kernel_unsafe = 240;
    irq_entry_user_unsafe = 320;
    irq_entry_kernel_safe = 350;
    irq_entry_user_safe = 500;
    irq_exit = 200;
    lock_uncontended = 40;
    spin_poll = 40;
    zap_pte = 100;
    fault_fixed = 900;
    fault_fixed_safe_extra = 700;
    vma_op = 350;
    context_switch = 600;
  }

(* Canonical value key for the bench harness's cell memoization: every
   field, in declaration order. The exhaustive record pattern makes adding
   a field without extending the key a compile error (warning 9), not a
   silent memoization bug. *)
let key
    {
      invlpg;
      invpcid_single;
      invpcid_full;
      cr3_write;
      lfence;
      page_walk;
      page_walk_cold;
      atomic_op;
      mem_access;
      page_copy;
      page_zero;
      io_page;
      fsync_fixed;
      line_local;
      line_smt;
      line_same_socket;
      line_cross_socket;
      icr_write;
      ipi_fixed;
      ipi_smt;
      ipi_same_socket;
      ipi_cross_socket;
      syscall_entry_unsafe;
      syscall_exit_unsafe;
      syscall_entry_safe;
      syscall_exit_safe;
      irq_entry_kernel_unsafe;
      irq_entry_user_unsafe;
      irq_entry_kernel_safe;
      irq_entry_user_safe;
      irq_exit;
      lock_uncontended;
      spin_poll;
      zap_pte;
      fault_fixed;
      fault_fixed_safe_extra;
      vma_op;
      context_switch;
    } =
  String.concat ","
    (List.map string_of_int
       [
         invlpg;
         invpcid_single;
         invpcid_full;
         cr3_write;
         lfence;
         page_walk;
         page_walk_cold;
         atomic_op;
         mem_access;
         page_copy;
         page_zero;
         io_page;
         fsync_fixed;
         line_local;
         line_smt;
         line_same_socket;
         line_cross_socket;
         icr_write;
         ipi_fixed;
         ipi_smt;
         ipi_same_socket;
         ipi_cross_socket;
         syscall_entry_unsafe;
         syscall_exit_unsafe;
         syscall_entry_safe;
         syscall_exit_safe;
         irq_entry_kernel_unsafe;
         irq_entry_user_unsafe;
         irq_entry_kernel_safe;
         irq_entry_user_safe;
         irq_exit;
         lock_uncontended;
         spin_poll;
         zap_pte;
         fault_fixed;
         fault_fixed_safe_extra;
         vma_op;
         context_switch;
       ])

let ipi_latency t (d : Topology.distance) =
  match d with
  | Self -> t.ipi_fixed
  | Smt_sibling -> t.ipi_fixed + t.ipi_smt
  | Same_socket -> t.ipi_fixed + t.ipi_same_socket
  | Cross_socket -> t.ipi_fixed + t.ipi_cross_socket

let line_transfer t (d : Topology.distance) =
  match d with
  | Self -> t.line_local
  | Smt_sibling -> t.line_smt
  | Same_socket -> t.line_same_socket
  | Cross_socket -> t.line_cross_socket

let syscall_entry t ~safe = if safe then t.syscall_entry_safe else t.syscall_entry_unsafe
let syscall_exit t ~safe = if safe then t.syscall_exit_safe else t.syscall_exit_unsafe

let irq_entry t ~safe ~from_user =
  match (safe, from_user) with
  | true, true -> t.irq_entry_user_safe
  | true, false -> t.irq_entry_kernel_safe
  | false, true -> t.irq_entry_user_unsafe
  | false, false -> t.irq_entry_kernel_unsafe
