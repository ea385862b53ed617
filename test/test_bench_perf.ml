(* The BENCH_PERF.json row format: what the writer emits the reader reads
   back exactly, and anything else is an error, never an empty file. *)

let check = Alcotest.check
let bool_t = Alcotest.bool

let row ?(memoized = false) family key values =
  { Bench_perf.family; key; values; memoized }

(* Families interleaved, nulls, both memoized states, awkward keys, an
   empty values list and floats that need all 17 digits. *)
let rows =
  [
    row "experiments" "fig5"
      [ ("wall_s", Some 0.0521); ("engine_ops", Some 123961.0); ("words", Some 0.1) ];
    row "workloads" "wl-fig10/paper" ~memoized:true
      [ ("throughput", Some 1.0158); ("cycles_per_shootdown", None) ];
    row "experiments" "table2" [ ("engine_ops", None); ("engine_ops_per_s", None) ];
    row "phases" "ack{distance=\"far\",path=C:\\tmp}" [ ("p50", Some 165.0) ];
    row "bigmachine" "empty" [];
    row "experiments" "precise"
      [
        ("third", Some (1.0 /. 3.0));
        ("tiny", Some 1e-300);
        ("huge", Some 1.7976931348623157e308);
        ("negative", Some (-2.5));
      ];
  ]

let text = Bench_perf.to_string ~mode:"quick" rows
(* Read [s] back the way the perf gate does: from a file. *)
let parse s =
  let path = Filename.temp_file "bench_perf" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  let rows = Bench_perf.load path in
  Sys.remove path;
  rows

let test_round_trip () =
  (match parse text with
  | Ok back -> check bool_t "rows read back unchanged" true (back = rows)
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  check bool_t "empty file of rows reads back" true
    (parse (Bench_perf.to_string ~mode:"quick" []) = Ok [])

let test_non_finite_written_as_null () =
  let r = row "run" "total" [ ("nan", Some Float.nan); ("inf", Some Float.infinity) ] in
  match parse (Bench_perf.to_string ~mode:"quick" [ r ]) with
  | Ok [ back ] ->
      check bool_t "read back as n/a" true
        (back.Bench_perf.values = [ ("nan", None); ("inf", None) ])
  | _ -> Alcotest.fail "expected one row"

let test_value () =
  let r = List.hd (List.tl rows) in
  check bool_t "present" true (Bench_perf.value r "throughput" = Some 1.0158);
  check bool_t "null" true (Bench_perf.value r "cycles_per_shootdown" = None);
  check bool_t "absent" true (Bench_perf.value r "wall_s" = None)

(* Every cut before the closing brace is a truncated file. *)
let test_every_truncation_is_an_error () =
  let last = String.rindex text '}' in
  for n = 0 to last do
    match parse (String.sub text 0 n) with
    | Ok _ -> Alcotest.failf "a %d-byte prefix parsed" n
    | Error _ -> ()
  done

let test_malformed_files_are_errors () =
  let schema7 =
    "{\"schema\": 7, \"mode\": \"quick\", \"experiments\": [{\"name\": \"fig5\"}]}"
  in
  let with_rows rows =
    Printf.sprintf "{\"schema\": 8, \"mode\": \"x\", \"rows\": [%s]}" rows
  in
  let with_values values =
    with_rows
      ("{\"family\": \"a\", \"key\": \"b\", \"memoized\": false, \"values\": {"
     ^ values ^ "}}")
  in
  List.iter
    (fun (what, s) ->
      match parse s with
      | Ok _ -> Alcotest.failf "%s parsed" what
      | Error _ -> ())
    [
      ("plain text", "fig5 0.05s 123,961 engine-ops\n");
      ("empty file", "");
      ("no schema", "{\"mode\": \"quick\", \"rows\": []}");
      ("a schema-7 file", schema7);
      ("no rows array", "{\"schema\": 8, \"mode\": \"quick\"}");
      ("trailing garbage", text ^ "}");
      ( "row without memoized",
        with_rows "{\"family\": \"a\", \"key\": \"b\", \"values\": {}}" );
      ("string value", with_values "\"v\": \"1\"");
      ("bad number", with_values "\"v\": 1.2.3");
    ]

let suite =
  [
    Alcotest.test_case "writer -> reader round trip" `Quick test_round_trip;
    Alcotest.test_case "non-finite values written as null" `Quick
      test_non_finite_written_as_null;
    Alcotest.test_case "value: null and absent are None" `Quick test_value;
    Alcotest.test_case "every truncation is an error" `Quick
      test_every_truncation_is_an_error;
    Alcotest.test_case "malformed files are errors" `Quick
      test_malformed_files_are_errors;
  ]
