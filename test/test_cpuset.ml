(* Cpuset vs a Set.Make(Int) model: randomized op sequences over universe
   sizes straddling every word boundary the packed representation cares
   about, plus the documented iter/fold reentrancy contract and the
   256-CPU big-machine determinism property the bench harness relies on. *)

module IntSet = Set.Make (Int)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let list_t = Alcotest.(list int)

(* Word width is 32 bits, but exercise the old per-int ceiling (62/63/64/65)
   too: those sizes were exactly where the previous representations broke. *)
let universe_sizes = [ 1; 2; 31; 32; 33; 62; 63; 64; 65; 100; 512; 1023; 1100 ]

let ops_per_size = 400

let of_list l =
  let s = Cpuset.create ~bits:0 in
  List.iter (Cpuset.set s) l;
  s

let test_randomized_against_model () =
  let rng = Rng.create ~seed:0x5e7b175L in
  List.iter
    (fun n ->
      let s = Cpuset.create ~bits:n in
      let model = ref IntSet.empty in
      let ctx = Printf.sprintf "n=%d" n in
      for _ = 1 to ops_per_size do
        let b = Rng.int rng n in
        (match Rng.int rng 4 with
        | 0 | 1 ->
            (* bias toward set so the sets are non-trivially full *)
            Cpuset.set s b;
            model := IntSet.add b !model
        | 2 ->
            Cpuset.clear s b;
            model := IntSet.remove b !model
        | _ ->
            check bool_t
              (Printf.sprintf "%s mem %d" ctx b)
              (IntSet.mem b !model) (Cpuset.mem s b));
        if Rng.int rng 50 = 0 then begin
          Cpuset.clear_all s;
          model := IntSet.empty
        end
      done;
      check int_t (ctx ^ " count") (IntSet.cardinal !model) (Cpuset.count s);
      check bool_t (ctx ^ " is_empty") (IntSet.is_empty !model) (Cpuset.is_empty s);
      check list_t (ctx ^ " to_list ascending") (IntSet.elements !model)
        (Cpuset.to_list s);
      (* fold visits the same elements in the same ascending order *)
      let folded = List.rev (Cpuset.fold (fun acc b -> b :: acc) [] s) in
      check list_t (ctx ^ " fold order") (IntSet.elements !model) folded;
      (* iter agrees with fold *)
      let seen = ref [] in
      Cpuset.iter (fun b -> seen := b :: !seen) s;
      check list_t (ctx ^ " iter order") folded (List.rev !seen);
      (* mem outside the populated range is false, never an error *)
      check bool_t (ctx ^ " mem past end") false (Cpuset.mem s (n + 1000)))
    universe_sizes

let test_copy_against_model () =
  let rng = Rng.create ~seed:0xc0feeL in
  List.iter
    (fun n ->
      let a = Cpuset.create ~bits:n and b = Cpuset.create ~bits:0 in
      let ma = ref IntSet.empty and mb = ref IntSet.empty in
      for _ = 1 to ops_per_size / 2 do
        let x = Rng.int rng n in
        if Rng.int rng 2 = 0 then begin
          Cpuset.set a x;
          ma := IntSet.add x !ma
        end
        else begin
          (* b starts at zero capacity: copy must grow it *)
          Cpuset.set b x;
          mb := IntSet.add x !mb
        end
      done;
      let ctx = Printf.sprintf "n=%d" n in
      let u = Cpuset.create ~bits:0 in
      Cpuset.copy_into ~dst:u ~src:a;
      check list_t (ctx ^ " copy_into") (IntSet.elements !ma) (Cpuset.to_list u);
      (* copy_into a wider dst must zero the tail *)
      let wide = of_list [ n + 200 ] in
      Cpuset.copy_into ~dst:wide ~src:b;
      check list_t (ctx ^ " copy_into zeroes tail") (IntSet.elements !mb)
        (Cpuset.to_list wide);
      (* copy_into a narrower dst must grow it *)
      let narrow = Cpuset.create ~bits:0 in
      Cpuset.copy_into ~dst:narrow ~src:wide;
      check list_t (ctx ^ " copy_into grows dst") (IntSet.elements !mb)
        (Cpuset.to_list narrow))
    universe_sizes

(* The documented reentrancy contract: the callback may clear the current
   (or any earlier) bit mid-iteration — the filter-in-place pattern
   select_targets uses — without perturbing which bits get visited. *)
let test_iter_filter_in_place () =
  let s = of_list [ 0; 3; 31; 32; 64; 65; 99; 1022 ] in
  let visited = ref [] in
  Cpuset.iter
    (fun b ->
      visited := b :: !visited;
      if b mod 2 = 0 then Cpuset.clear s b)
    s;
  check list_t "all bits visited" [ 0; 3; 31; 32; 64; 65; 99; 1022 ]
    (List.rev !visited);
  check list_t "evens filtered out" [ 3; 31; 65; 99 ] (Cpuset.to_list s)

let test_errors_and_edges () =
  let s = Cpuset.create ~bits:4 in
  Alcotest.check_raises "negative set" (Invalid_argument "Cpuset.set: negative element")
    (fun () -> Cpuset.set s (-1));
  check bool_t "negative mem is false" false (Cpuset.mem s (-1));
  Cpuset.clear s (-1);
  (* no-op, no exception *)
  Cpuset.set s 0;
  Cpuset.set s 2000;
  (* auto-grows *)
  check list_t "growth keeps bits" [ 0; 2000 ] (Cpuset.to_list s);
  check int_t "count across words" 2 (Cpuset.count s)

(* 256-CPU byte-identity: a mini bigmachine scenario reduced through the
   bench harness's own Shard pipeline must print the same bytes at every
   -j — the property CI's bigmachine-smoke step checks at full scale. *)
let sharded_bigmachine_output ~jobs =
  let cfg = Bigmachine.default_config ~opts:(Opts.all ~safe:true) ~n_cpus:256 in
  let cfg =
    { cfg with Bigmachine.tenants = 3; ops_per_thread = 10; churn_every = 5;
      churn_pages = 4; file_pages = 64 }
  in
  let plan =
    Shard.plan "bm256" @@ fun b ->
    let cells =
      List.map
        (fun seed ->
          Shard.cell b
            ~label:(Printf.sprintf "bm256 seed=%Ld" seed)
            ~ops:(fun r -> r.Bigmachine.engine_ops)
            ~weight:1000.0
            (fun () -> Bigmachine.run { cfg with Bigmachine.seed }))
        [ 37L; 911L ]
    in
    fun () ->
      ( Report.table ~title:"bm256" ~header:[ "cpus"; "sd"; "ipis"; "icr"; "churn"; "ops" ]
        (List.map
           (fun get ->
             let r = get () in
             [
               string_of_int r.Bigmachine.n_cpus;
               string_of_int r.Bigmachine.shootdowns;
               string_of_int r.Bigmachine.ipis;
               string_of_int r.Bigmachine.icr_writes;
               string_of_int r.Bigmachine.churn_cycles;
               string_of_int r.Bigmachine.engine_ops;
             ])
           cells),
        [] )
  in
  let outcomes = Shard.execute ~jobs [ plan ] in
  String.concat "" (List.map (fun o -> o.Shard.output) outcomes)

let test_bigmachine_256_identical_across_jobs () =
  let j1 = sharded_bigmachine_output ~jobs:1 in
  check bool_t "produced output" true (String.length j1 > 0);
  check Alcotest.string "-j2 byte-identical to -j1" j1
    (sharded_bigmachine_output ~jobs:2);
  check Alcotest.string "-j4 byte-identical to -j1" j1
    (sharded_bigmachine_output ~jobs:4)

let suite =
  [
    Alcotest.test_case "randomized vs Set model" `Quick test_randomized_against_model;
    Alcotest.test_case "copy vs Set model" `Quick test_copy_against_model;
    Alcotest.test_case "iter filter-in-place contract" `Quick test_iter_filter_in_place;
    Alcotest.test_case "errors and edges" `Quick test_errors_and_edges;
    Alcotest.test_case "bigmachine 256: -j2/-j4 = -j1" `Quick
      test_bigmachine_256_identical_across_jobs;
  ]
