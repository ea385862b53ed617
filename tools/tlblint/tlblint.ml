(* tlblint CLI — scan .cmt trees and report determinism/hot-path findings.

   Usage: tlblint [--rules R1,R2,...] [--allow FILE] [-I DIR] [-q] PATH...
   PATHs are .cmt files or directories searched recursively (point it at
   _build/default/lib etc. after `dune build @check`).  R5 counts a use
   from any .cmt under a PATH's parent directory, except one under a
   [test] directory, so scanning _build/default/lib reads the uses in
   _build/default/bin and the rest but not in _build/default/test.
   Exits 1 when any unsuppressed finding remains, 2 on usage errors. *)

let usage =
  "usage: tlblint [--rules R1,R2,R3,R4,R5] [--allow FILE] [-I DIR] [-q] PATH...\n\
   Scans .cmt files (or directories of them) for determinism and hot-path\n\
   hazards.  Rules: R1 poly-compare, R2 unordered-iteration,\n\
   R3 nondeterminism-source, R4 unsafe-array/float-compare,\n\
   R5 dead-export (uses are read from every .cmt beside each PATH,\n\
   except those under a test/ directory).\n\
   Default allowlist: tools/tlblint/allow.sexp (when present)."

let () =
  let rules = ref Lint.all_rules in
  let allow_file = ref None in
  let extra_dirs = ref [] in
  let quiet = ref false in
  let paths = ref [] in
  let die msg =
    prerr_endline msg;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
        print_endline usage;
        exit 0
    | "--rules" :: spec :: rest ->
        let named =
          String.split_on_char ',' spec
          |> List.filter_map (fun w ->
                 match Lint.rule_of_string w with
                 | Some r -> Some r
                 | None -> die (Printf.sprintf "tlblint: unknown rule %S" w))
        in
        if List.compare_length_with named 0 = 0 then
          die "tlblint: --rules needs at least one of R1,R2,R3,R4,R5";
        rules := named;
        parse rest
    | "--allow" :: file :: rest ->
        allow_file := Some file;
        parse rest
    | "-I" :: dir :: rest ->
        extra_dirs := dir :: !extra_dirs;
        parse rest
    | "-q" :: rest ->
        quiet := true;
        parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        die (Printf.sprintf "tlblint: unknown option %s\n%s" arg usage)
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if List.compare_length_with !paths 0 = 0 then die usage;
  let allow =
    match !allow_file with
    | Some f -> Lint.load_allowlist f
    | None ->
        let default = Filename.concat (Filename.concat "tools" "tlblint") "allow.sexp" in
        if Sys.file_exists default then Lint.load_allowlist default else []
  in
  let cmts = Lint.find_cmts (List.rev !paths) in
  if List.compare_length_with cmts 0 = 0 then
    die "tlblint: no .cmt files found (build with `dune build @check` first)";
  let findings =
    Lint.run ~rules:!rules ~allow ~extra_dirs:(List.rev !extra_dirs) (List.rev !paths)
  in
  List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) findings;
  let n = List.length findings in
  if not !quiet then begin
    let count r =
      List.length (List.filter (fun f -> f.Lint.f_rule = r) findings)
    in
    Format.printf "tlblint: %d cmt file(s), %d finding(s)" (List.length cmts) n;
    if n > 0 then
      Format.printf " (%s)"
        (String.concat ", "
           (List.map
              (fun r -> Printf.sprintf "%s %d" (Lint.rule_name r) (count r))
              Lint.all_rules));
    Format.printf "@."
  end;
  exit (if n > 0 then 1 else 0)
