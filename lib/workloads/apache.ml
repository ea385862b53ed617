type config = {
  opts : Opts.t;
  cores : int;
  requests : int;
  file_pages : int;
  n_files : int;
  request_work : int;
  seed : int64;
}

let default_config ~opts ~cores =
  {
    opts;
    cores;
    requests = 600;
    file_pages = 3;
    n_files = 16;
    request_work = 36_000;
    seed = 31L;
  }

(* Canonical value key over the whole config: equal keys iff the runs are
   identical, so the bench harness may share one cell between experiments. *)
let config_key { opts; cores; requests; file_pages; n_files; request_work; seed } =
  Printf.sprintf "apache|%s|c=%d req=%d pages=%d files=%d work=%d seed=%Ld"
    (Opts.key opts) cores requests file_pages n_files request_work seed

type result = {
  requests_done : int;
  cycles : int;
  throughput : float;
  shootdowns : int;
  engine_ops : int;
}

let run config =
  if config.cores <= 0 then invalid_arg "Apache: cores must be positive";
  let m = Machine.create ~opts:config.opts ~seed:config.seed () in
  let mm = Machine.new_mm m in
  let files =
    Array.init config.n_files (fun i ->
        let f =
          File.create m.Machine.frames
            ~name:(Printf.sprintf "htdocs/page%d.html" i)
            ~size_pages:config.file_pages
        in
        (* Web content is hot in the page cache. *)
        for index = 0 to config.file_pages - 1 do
          ignore (File.frame_of_page f ~index)
        done;
        f)
  in
  let done_count = ref 0 in
  let finish_times = ref [] in
  let per_worker = config.requests / config.cores in
  for w = 0 to config.cores - 1 do
    let cpu = w in
    let rng = Rng.split m.Machine.rng in
    Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "worker%d" w) (fun () ->
        let cpu_t = Machine.cpu m cpu in
        for _ = 1 to per_worker do
          let file = files.(Rng.int rng config.n_files) in
          let addr =
            Syscall.mmap m ~cpu ~pages:config.file_pages ~writable:false
              ~backing:(Vma.File_shared { file; offset = 0 })
              ()
          in
          Access.touch_range m ~cpu ~addr ~pages:config.file_pages ~write:false;
          (* Parse request, build headers, push bytes into the socket. *)
          Cpu.compute cpu_t config.request_work;
          Syscall.munmap m ~cpu ~addr ~pages:config.file_pages;
          incr done_count
        done;
        finish_times := Machine.now m :: !finish_times)
  done;
  Kernel.run m;
  Kernel.check_run m ~who:"Apache";
  let cycles =
    match !finish_times with
    | [] -> Machine.now m
    | times -> List.fold_left ( + ) 0 times / List.length times
  in
  {
    requests_done = !done_count;
    cycles;
    throughput =
      (if cycles = 0 then 0.0
       else float_of_int !done_count *. 1_000_000.0 /. float_of_int cycles);
    shootdowns = m.Machine.stats.Machine.shootdowns;
    engine_ops = Machine.engine_ops m;
  }
