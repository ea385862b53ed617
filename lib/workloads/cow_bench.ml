type config = { opts : Opts.t; pages_per_round : int; rounds : int; seed : int64 }

let default_config ~opts = { opts; pages_per_round = 64; rounds = 10; seed = 11L }

(* Canonical value key over the whole config: equal keys iff the runs are
   identical, so the bench harness may share one cell between experiments. *)
let config_key { opts; pages_per_round; rounds; seed } =
  Printf.sprintf "cow|%s|pages=%d rounds=%d seed=%Ld" (Opts.key opts) pages_per_round
    rounds seed

type result = {
  write_mean : float;
  write_sd : float;
  cow_breaks : int;
  flushes_avoided : int;
  engine_ops : int;
}

let run config =
  let m = Machine.create ~opts:config.opts ~seed:config.seed () in
  let mm = Machine.new_mm m in
  let stats = Stats.create () in
  let file =
    File.create m.Machine.frames ~name:"cow.dat"
      ~size_pages:config.pages_per_round
  in
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"cow-writer" (fun () ->
      for _ = 1 to config.rounds do
        let addr =
          Syscall.mmap m ~cpu:0 ~pages:config.pages_per_round
            ~backing:(Vma.File_private { file; offset = 0 })
            ()
        in
        (* Read-touch: populate write-protected COW translations. *)
        Access.touch_range m ~cpu:0 ~addr ~pages:config.pages_per_round ~write:false;
        for i = 0 to config.pages_per_round - 1 do
          let vaddr = addr + (i * Addr.page_size) in
          let t0 = Machine.now m in
          Access.write m ~cpu:0 ~vaddr;
          Stats.add stats (float_of_int (Machine.now m - t0))
        done;
        Syscall.munmap m ~cpu:0 ~addr ~pages:config.pages_per_round
      done);
  Kernel.run m;
  Kernel.check_run m ~who:"Cow_bench";
  {
    write_mean = Stats.mean stats;
    write_sd = Stats.stddev stats;
    cow_breaks = m.Machine.stats.Machine.cow_breaks;
    flushes_avoided = m.Machine.stats.Machine.cow_flush_avoided;
    engine_ops = Machine.engine_ops m;
  }
