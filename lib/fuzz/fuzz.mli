(** Differential fuzzing of the shootdown protocol against the
    conservative oracle ({!Opts.oracle}).

    Each seed deterministically generates a program — random topology,
    a 6-bit optimization combo ([seed mod 64], applied as far as the
    backend honours it: all 64 subsets under paper, in-context on/off under
    sync-broadcast and queue-spin), a protocol backend from disjoint seed bits ([seed lsr 6 mod 3]: seeds
    0..63 paper, 64..127 sync-broadcast, 128..191 queue-spin, repeating),
    worker threads pinned to distinct CPUs, and a sequence of kernel ops
    over their address spaces — then executes it twice: under the backend
    under test and under the oracle (every PTE change one synchronous
    whole-TLB broadcast). Ops run sequentially but overlap
    with responder-side IPI handling, early-acked flush tails and §3.4
    deferrals, so each op's functional result (addresses, observed pfns,
    faults) is identical across both runs exactly when no CPU ever uses a
    stale translation. Any difference, any Checker violation, or any
    quiescence-invariant failure in the optimized run is a protocol bug;
    failing programs are ddmin-shrunk to a minimal op sequence.

    Ops address regions symbolically (index mod live regions), so every
    subsequence of a program remains executable — the property shrinking
    relies on. *)

type op =
  | Op_mmap of { worker : int; pages : int; huge : bool }
  | Op_munmap of { worker : int; region : int }
  | Op_mprotect of { worker : int; region : int; writable : bool }
  | Op_mremap of { worker : int; region : int }
  | Op_reclaim of { worker : int; region : int }
  | Op_touch of { worker : int; region : int; page : int; write : bool }
  | Op_fork of { worker : int }
  | Op_cow_write of { worker : int; region : int; page : int }
  | Op_migrate of { worker : int; region : int }
  | Op_ksm of { worker : int; region : int }
  | Op_sched of { worker : int; cpu : int }

type program = {
  p_seed : int;
  p_sockets : int;
  p_cores : int;
  p_smt : int;
  p_safe : bool;
  p_combo : int;
  p_protocol : Opts.protocol;
  p_inject_bug : bool;
  p_workers : int;
  p_tlb_capacity : int;
  p_flush_threshold : int;
  p_ops : op list;
}

(** The [Opts.t] the program's own combo/protocol/inject-bug fields denote:
    combo bit [i] sets row [i] of {!Opts.techniques} where the backend
    {!Opts.honours} it, and [inject_bug] sets the [Skip_deferred_flush]
    fault. *)
val program_opts : program -> Opts.t

(** The program seed [seed] denotes, deterministically. [inject_bug]
    forces safe mode + §3.4 so the injected bug is reachable. *)
val gen_program : ?max_ops:int -> ?inject_bug:bool -> int -> program

type exec_result = {
  xr_obs : string array;
  xr_final : string list;
  xr_violations : string list;
  xr_invariants : string list;
  xr_crash : string option;
}

(** One run of [program] on a fresh machine under [opts]. *)
val execute : opts:Opts.t -> program -> exec_result

(** Both runs plus the diff: the list of disagreement reasons, [[]] when
    the optimized protocol matches the oracle (the pass condition). *)
val run_program : program -> string list

type failure = {
  f_seed : int;
  f_inject_bug : bool;
  f_reasons : string list;
  f_program : program;
  f_shrunk : op list option;
}

type report = { tested : int; failures : failure list }

(** Generate, run and (on failure) shrink one seed. [None] = pass. *)
val check_seed : ?max_ops:int -> ?inject_bug:bool -> ?shrink:bool -> int -> failure option

(** [run_seeds ~seed_base ~count ~jobs ()] shards seeds
    [seed_base .. seed_base+count-1] over a {!Domain_pool}. *)
val run_seeds :
  ?seed_base:int ->
  ?count:int ->
  ?jobs:int ->
  ?max_ops:int ->
  ?inject_bug:bool ->
  ?shrink:bool ->
  unit ->
  report

val pp_op : Format.formatter -> op -> unit
val pp_program : Format.formatter -> program -> unit

(** The failure's program, reasons and minimal reproducer, ending with the
    [tlbsim fuzz --seed N --replay] line that reproduces it. *)
val pp_failure : Format.formatter -> failure -> unit
