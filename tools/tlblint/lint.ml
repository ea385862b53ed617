(* tlblint — typed-AST determinism & hot-path sanitizer (DESIGN.md §11).

   Reads the .cmt files dune already produces, walks the typedtree with
   Tast_iterator, and reports findings with file:line spans.  Rules:

   R1 poly-compare: [=], [<>], [<], [>], [<=], [>=], [compare], [min],
      [max], [Hashtbl.hash] instantiated at a non-immediate type, and
      physical [==]/[!=] against a constant constructor ([], None, ...) of a
      non-immediate type.
   R2 unordered-iteration: [Hashtbl.iter]/[fold]/[to_seq*] whose result is
      not piped into a deterministic sort in the same expression.
   R3 nondeterminism-source: [Stdlib.Random.*], [Unix.gettimeofday]/[time],
      [Sys.time], [Domain.spawn] outside allowlisted modules.
   R4 unsafe-array discipline: [Array.unsafe_get]/[set] (and Bytes) only in
      modules carrying a "tlblint: proven-bounds" header comment; plus
      structural float comparison (NaN hazard).
   R5 dead-export: a [val] in a scanned module's .mli that no other
      compilation unit references, scanned or under a scanned path's parent
      directory; uses from units under a [test/] directory do not count.

   Suppression: [@tlblint.allow "R1"] on an expression or let-binding
   (space/comma-separated rule ids, or "all"), [@@@tlblint.allow "R2"] for a
   whole module, or an entry in the allow.sexp allowlist.  An R5 grant sits
   on the [val] in the .mli and must carry a reason after the rule id. *)

type rule = R1 | R2 | R3 | R4 | R5

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"

let all_rules = [ R1; R2; R3; R4; R5 ]

let rule_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "r1" | "poly-compare" -> Some R1
  | "r2" | "unordered-iteration" -> Some R2
  | "r3" | "nondeterminism-source" -> Some R3
  | "r4" | "unsafe-array" -> Some R4
  | "r5" | "dead-export" -> Some R5
  | _ -> None

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : rule;
  f_msg : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.f_file f.f_line f.f_col
    (rule_name f.f_rule) f.f_msg

(* Deterministic report order (dogfood: monomorphic compares only). *)
let compare_findings a b =
  let c = String.compare a.f_file b.f_file in
  if c <> 0 then c
  else
    let c = Int.compare a.f_line b.f_line in
    if c <> 0 then c
    else
      let c = Int.compare a.f_col b.f_col in
      if c <> 0 then c else String.compare (rule_name a.f_rule) (rule_name b.f_rule)

(* ----- allowlist (tools/tlblint/allow.sexp) ----- *)

type scope = Scope_module of string | Scope_file of string

type allow_entry = {
  a_rule : rule;
  a_scope : scope;
  a_line : int option; (* None = whole scope *)
  a_reason : string;
}

(* Minimal s-expression reader: atoms, "strings", (lists), ; comments. *)
type sexp = Atom of string | List of sexp list

let parse_sexps (text : string) : sexp list =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        while !pos < n && text.[!pos] <> '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let read_string () =
    advance ();
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> failwith "tlblint: unterminated string in allowlist"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some c ->
              Buffer.add_char b c;
              advance ()
          | None -> failwith "tlblint: bad escape in allowlist");
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let read_atom () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' | '"') | None -> ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec read_one () : sexp =
    skip_ws ();
    match peek () with
    | None -> failwith "tlblint: unexpected end of allowlist"
    | Some '(' ->
        advance ();
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ')' -> advance ()
          | None -> failwith "tlblint: unbalanced ( in allowlist"
          | _ ->
              items := read_one () :: !items;
              loop ()
        in
        loop ();
        List (List.rev !items)
    | Some '"' -> Atom (read_string ())
    | Some _ -> Atom (read_atom ())
  in
  let out = ref [] in
  let rec loop () =
    skip_ws ();
    if !pos < n then begin
      out := read_one () :: !out;
      loop ()
    end
  in
  loop ();
  List.rev !out

let allow_entry_of_sexp (s : sexp) : allow_entry =
  let fail () = failwith "tlblint: malformed allowlist entry" in
  match s with
  | List (Atom "allow" :: Atom r :: rest) ->
      let a_rule = match rule_of_string r with Some r -> r | None -> fail () in
      let scope = ref None and line = ref None and reason = ref "" in
      List.iter
        (fun item ->
          match item with
          | List [ Atom "module"; Atom m ] -> scope := Some (Scope_module m)
          | List [ Atom "file"; Atom f ] -> scope := Some (Scope_file f)
          | List [ Atom "line"; Atom l ] -> line := int_of_string_opt l
          | Atom reason_text -> reason := reason_text
          | _ -> fail ())
        rest;
      let a_scope = match !scope with Some s -> s | None -> fail () in
      { a_rule; a_scope; a_line = !line; a_reason = !reason }
  | _ -> fail ()

let load_allowlist path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  List.map allow_entry_of_sexp (parse_sexps text)

(* [file] ends with the (normalized) allowlist path, on a path-segment
   boundary, so "lib/sim/engine.ml" matches "_build/default/lib/sim/engine.ml". *)
let file_matches ~entry_path ~file =
  let fp = String.length file and ep = String.length entry_path in
  ep > 0
  && fp >= ep
  && String.equal (String.sub file (fp - ep) ep) entry_path
  && (fp = ep || file.[fp - ep - 1] = '/')

let allow_matches entries ~rule ~modname ~file ~line =
  List.exists
    (fun e ->
      e.a_rule = rule
      && (match e.a_line with None -> true | Some l -> l = line)
      &&
      match e.a_scope with
      | Scope_module m -> String.equal m modname
      | Scope_file p -> file_matches ~entry_path:p ~file)
    entries

(* ----- suppression attributes ----- *)

let contains_substring ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1))
  in
  nn > 0 && at 0

let split_words s =
  String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) s)
  |> List.filter (fun w -> String.length w > 0)

(* Payloads of the [@tlblint.allow "..."] attributes: [Some s] for a
   string, [None] for any other payload (which grants every rule). *)
let allow_payloads (attrs : Parsetree.attributes) : string option list =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt "tlblint.allow") then None
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            Some (Some s)
        | _ -> Some None)
    attrs

let is_all w = String.equal (String.lowercase_ascii w) "all"

let rules_of_payload = function
  | None -> all_rules
  | Some s ->
      let words = split_words s in
      if List.exists is_all words then all_rules
      else List.filter_map rule_of_string words

(* A payload gives a reason when some word is neither a rule id nor "all". *)
let payload_has_reason = function
  | None -> false
  | Some s ->
      List.exists
        (fun w -> (not (is_all w)) && Option.is_none (rule_of_string w))
        (split_words s)

(* Rules named by a [@tlblint.allow "..."] attribute; empty payload = all. *)
let rules_of_attributes attrs = List.concat_map rules_of_payload (allow_payloads attrs)

(* ----- typed-ident classification ----- *)

let mem_name names name = List.exists (String.equal name) names
let eq_ops = [ "Stdlib.="; "Stdlib.<>" ]

(* Ordering at a float is IEEE-defined (NaN compares false), so only the
   non-immediate instantiations are findings. *)
let ord_ops = [ "Stdlib.<"; "Stdlib.>"; "Stdlib.<="; "Stdlib.>=" ]
let phys_ops = [ "Stdlib.=="; "Stdlib.!=" ]
let cmp_fns = [ "Stdlib.compare"; "Stdlib.min"; "Stdlib.max" ]
let hash_fns = [ "Stdlib.Hashtbl.hash"; "Stdlib.Hashtbl.seeded_hash" ]

let hashtbl_iters =
  [
    "Stdlib.Hashtbl.iter";
    "Stdlib.Hashtbl.fold";
    "Stdlib.Hashtbl.to_seq";
    "Stdlib.Hashtbl.to_seq_keys";
    "Stdlib.Hashtbl.to_seq_values";
  ]

let sort_fns =
  [
    "Stdlib.List.sort";
    "Stdlib.List.stable_sort";
    "Stdlib.List.fast_sort";
    "Stdlib.List.sort_uniq";
    "Stdlib.Array.sort";
    "Stdlib.Array.stable_sort";
    "Stdlib.Array.fast_sort";
  ]

let pipe_ops = [ "Stdlib.|>"; "Stdlib.@@" ]

let unsafe_array_fns =
  [
    "Stdlib.Array.unsafe_get";
    "Stdlib.Array.unsafe_set";
    "Stdlib.Bytes.unsafe_get";
    "Stdlib.Bytes.unsafe_set";
  ]

let nondet_exact = [ "Unix.gettimeofday"; "Unix.time"; "Stdlib.Sys.time" ]
let nondet_prefixes = [ "Stdlib.Random."; "Stdlib.Domain.spawn" ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* ----- immediacy of an instantiation type ----- *)

type immediacy = Imm | Float_ty | Block | Poly | Unknown

let rec immediacy_of env ty =
  match Ctype.expand_head env ty with
  | exception _ -> Unknown
  | ty -> (
      match Types.get_desc ty with
      | Tconstr (p, _, _) ->
          if
            Path.same p Predef.path_int || Path.same p Predef.path_char
            || Path.same p Predef.path_bool || Path.same p Predef.path_unit
          then Imm
          else if Path.same p Predef.path_float then Float_ty
          else (
            match Env.find_type p env with
            | decl -> (
                match decl.Types.type_immediate with
                | Type_immediacy.Always | Type_immediacy.Always_on_64bits -> Imm
                | Type_immediacy.Unknown -> Block)
            | exception _ -> Unknown)
      | Tvariant row ->
          if
            List.for_all
              (fun (_, f) ->
                match Types.row_field_repr f with
                | Types.Rpresent None -> true
                | Types.Reither (true, [], _) -> true
                | _ -> false)
              (Types.row_fields row)
          then Imm
          else Block
      | Tpoly (ty, _) -> immediacy_of env ty
      | Tvar _ | Tunivar _ -> Poly
      | _ -> Block)

let type_to_string env ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> ignore env; "<type>"

(* First parameter of an (instantiated) arrow type: the comparison operand. *)
let first_param env ty =
  match Types.get_desc (Ctype.expand_head env ty) with
  | Tarrow (_, a, _, _) -> Some a
  | _ -> None
  | exception _ -> None

(* ----- the per-module walk ----- *)

type ctx = {
  mutable findings : finding list;
  mutable suppression_stack : rule list list;
  mutable module_allow : rule list;
  mutable sort_depth : int;
  enabled : rule list;
  allow : allow_entry list;
  modname : string;
  bounds_header : bool;
}

let loc_of (l : Location.t) =
  let p = l.loc_start in
  (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol)

let report ctx ~loc rule msg =
  let file, line, col = loc_of loc in
  let suppressed =
    (not (List.memq rule ctx.enabled))
    || List.memq rule ctx.module_allow
    || List.exists (fun rs -> List.memq rule rs) ctx.suppression_stack
    || allow_matches ctx.allow ~rule ~modname:ctx.modname ~file ~line
  in
  if not suppressed then
    ctx.findings <-
      { f_file = file; f_line = line; f_col = col; f_rule = rule; f_msg = msg }
      :: ctx.findings

let env_of (e : Typedtree.expression) =
  match Envaux.env_of_only_summary e.exp_env with
  | env -> env
  | exception _ -> e.exp_env

(* The short operator name for messages: "Stdlib.<>" -> "<>". *)
let short_name name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let check_comparison ctx (e : Typedtree.expression) name =
  let env = env_of e in
  match first_param env e.exp_type with
  | None -> ()
  | Some operand_ty -> (
      let op = short_name name in
      match immediacy_of env operand_ty with
      | Imm -> ()
      | Float_ty when mem_name ord_ops name -> ()
      | Float_ty ->
          report ctx ~loc:e.exp_loc R4
            (Printf.sprintf
               "structural float comparison (%s) is NaN-hazardous — use \
                Float.equal/Float.compare/Float.min/Float.max"
               op)
      | Block | Poly | Unknown ->
          report ctx ~loc:e.exp_loc R1
            (Printf.sprintf
               "polymorphic %s at type %s — use a monomorphic comparison \
                (pattern match, String.equal, Int.compare, List.is_empty, ...)"
               op
               (type_to_string env operand_ty)))

let check_ident ctx (e : Typedtree.expression) path =
  let name = Path.name path in
  if
    mem_name eq_ops name || mem_name ord_ops name || mem_name cmp_fns name
    || mem_name hash_fns name
  then
    check_comparison ctx e name;
  if mem_name hashtbl_iters name && ctx.sort_depth = 0 then
    report ctx ~loc:e.exp_loc R2
      (Printf.sprintf
         "%s iterates in nondeterministic hash order — sort the collected result \
          (e.g. |> List.sort) or suppress with [@tlblint.allow \"R2\"] and a \
          justification"
         (Path.name path));
  if
    mem_name nondet_exact name
    || List.exists (fun p -> has_prefix ~prefix:p name) nondet_prefixes
  then
    report ctx ~loc:e.exp_loc R3
      (Printf.sprintf
         "nondeterminism source %s — only sanctioned modules (Rng, Domain_pool, \
          wall-clock timing in bench/shard) may use this; see tools/tlblint/allow.sexp"
         name);
  if mem_name unsafe_array_fns name && not ctx.bounds_header then
    report ctx ~loc:e.exp_loc R4
      (Printf.sprintf
         "%s outside a proven-bounds module — audit the indices and add a \
          \"tlblint: proven-bounds\" header comment, or use safe indexing"
         (short_name name))

let head_ident (e : Typedtree.expression) =
  let rec peel (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some p
    | Texp_apply (f, _) -> peel f
    | _ -> None
  in
  peel e

let head_name e = match head_ident e with Some p -> Some (Path.name p) | None -> None

(* An application that guarantees a deterministic order downstream: a direct
   sort call, or x |> sort / sort @@ x piping. *)
let establishes_sort_ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
      match head_name f with
      | Some n when mem_name sort_fns n -> true
      | Some n when mem_name pipe_ops n ->
          List.exists
            (fun (_, arg) ->
              match arg with
              | Some a -> (
                  match head_name a with
                  | Some an -> mem_name sort_fns an
                  | None -> false)
              | None -> false)
            args
      | _ -> false)
  | _ -> false

(* Physical comparison against a constant constructor of a block type:
   [x == []], [x != None].  Works only because the constructor is immediate —
   flag it as the poly-compare class (R1). *)
let check_phys_eq ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
      match head_name f with
      | Some n when mem_name phys_ops n ->
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some ({ Typedtree.exp_desc = Texp_construct (_, cd, []); _ } as a) -> (
                  let env = env_of a in
                  match immediacy_of env a.exp_type with
                  | Imm | Float_ty -> ()
                  | Block | Poly | Unknown ->
                      report ctx ~loc:e.exp_loc R1
                        (Printf.sprintf
                           "physical equality (%s) against %s at type %s — \
                            pattern-match instead"
                           (short_name n) cd.Types.cstr_name
                           (type_to_string env a.exp_type)))
              | _ -> ())
            args
      | _ -> ())
  | _ -> ()

let make_iterator ctx =
  let with_suppression rules k =
    if List.compare_length_with rules 0 = 0 then k ()
    else begin
      ctx.suppression_stack <- rules :: ctx.suppression_stack;
      k ();
      ctx.suppression_stack <- List.tl ctx.suppression_stack
    end
  in
  let expr sub (e : Typedtree.expression) =
    with_suppression (rules_of_attributes e.exp_attributes) (fun () ->
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> check_ident ctx e p
        | _ -> ());
        check_phys_eq ctx e;
        let sorts = establishes_sort_ctx e in
        if sorts then ctx.sort_depth <- ctx.sort_depth + 1;
        Tast_iterator.default_iterator.expr sub e;
        if sorts then ctx.sort_depth <- ctx.sort_depth - 1)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    with_suppression (rules_of_attributes vb.vb_attributes) (fun () ->
        Tast_iterator.default_iterator.value_binding sub vb)
  in
  { Tast_iterator.default_iterator with expr; value_binding }

let rec ancestors acc depth path =
  let parent = Filename.dirname path in
  if depth = 0 || String.equal parent path then List.rev acc
  else ancestors (parent :: acc) (depth - 1) parent

(* Does the module's header (first 40 lines) carry the proven-bounds audit
   marker?  [sourcefile] is recorded relative to the build root, so resolve
   it against the cmt's build dir, the cwd, and the cmt's own ancestors (the
   recorded build dir goes stale when the tree moves). *)
let read_bounds_header ~cmt_path ~builddir ~sourcefile =
  let candidates =
    (Filename.concat builddir sourcefile :: sourcefile
    :: List.map
         (fun base -> Filename.concat base sourcefile)
         (ancestors [] 8 cmt_path))
  in
  let path = List.find_opt Sys.file_exists candidates in
  match path with
  | None -> false
  | Some path -> (
      match open_in path with
      | exception _ -> false
      | ic ->
          let found = ref false in
          (try
             for _ = 1 to 40 do
               let line = input_line ic in
               if contains_substring ~needle:"tlblint: proven-bounds" line then
                 found := true
             done
           with End_of_file -> ());
          close_in ic;
          !found)

let lint_cmt ?(rules = all_rules) ?(allow = []) ~cmt_path
    (cmt : Cmt_format.cmt_infos) : finding list =
  match cmt.cmt_annots with
  | Implementation str ->
      let sourcefile = Option.value cmt.cmt_sourcefile ~default:"" in
      let bounds_header =
        read_bounds_header ~cmt_path ~builddir:cmt.cmt_builddir ~sourcefile
      in
      let module_allow =
        (* Floating [@@@tlblint.allow "..."] anywhere at the top level
           suppresses the named rules for the whole module. *)
        List.concat_map
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Tstr_attribute a -> rules_of_attributes [ a ]
            | _ -> [])
          str.str_items
      in
      let ctx =
        {
          findings = [];
          suppression_stack = [];
          module_allow;
          sort_depth = 0;
          enabled = rules;
          allow;
          modname = cmt.cmt_modname;
          bounds_header;
        }
      in
      let it = make_iterator ctx in
      it.structure it str;
      List.sort compare_findings ctx.findings
  | _ -> []

(* ----- R5: dead exports ----- *)

(* Record every [Unit.value] a compilation unit references as
   "Unit.value".  A unit used as a whole module (functor argument,
   [include], alias, first-class pack) is recorded as "Unit." and covers
   all of its values; [open Unit] is not a use, the idents it brings into
   scope are. *)
let collect_uses uses (cmt : Cmt_format.cmt_infos) =
  let unit_of = function
    | Path.Pident id when Ident.persistent id -> Some (Ident.name id)
    | _ -> None
  in
  let add key = Hashtbl.replace uses key () in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pdot (m, v), _, _) ->
        Option.iter (fun u -> add (u ^ "." ^ v)) (unit_of m)
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_expr sub (m : Typedtree.module_expr) =
    (match m.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (fun u -> add (u ^ ".")) (unit_of p)
    | _ -> ());
    Tast_iterator.default_iterator.module_expr sub m
  in
  let open_declaration sub (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> Tast_iterator.default_iterator.open_declaration sub od
  in
  let it =
    { Tast_iterator.default_iterator with expr; module_expr; open_declaration }
  in
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

(* The [val]s of the unit's .mli (its .cmti beside the .cmt) that no
   recorded use covers.  A grant on the [val] itself must give a reason. *)
let dead_exports ~allow ~uses cmt_path =
  let cmti = cmt_path ^ "i" in
  match Cmt_format.read_cmt cmti with
  | exception _ -> []
  | { cmt_annots = Interface sg; cmt_modname = modname; _ } ->
      List.filter_map
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value vd -> (
              let name = modname ^ "." ^ vd.val_name.txt in
              let file, line, col = loc_of vd.val_loc in
              let finding msg =
                Some { f_file = file; f_line = line; f_col = col; f_rule = R5; f_msg = msg }
              in
              let grants =
                List.filter
                  (fun p -> List.memq R5 (rules_of_payload p))
                  (allow_payloads vd.val_attributes)
              in
              match grants with
              | _ :: _ when List.exists (fun p -> not (payload_has_reason p)) grants ->
                  finding
                    (Printf.sprintf
                       "the R5 grant on %s gives no reason — say why it stays \
                        exported, e.g. [@@tlblint.allow \"R5 used by ...\"]"
                       name)
              | _ :: _ -> None
              | [] ->
                  if
                    Hashtbl.mem uses name
                    || Hashtbl.mem uses (modname ^ ".")
                    || allow_matches allow ~rule:R5 ~modname ~file ~line
                  then None
                  else
                    finding
                      (Printf.sprintf
                         "%s is exported but no other compilation unit uses it \
                          — delete it, or drop it from the .mli if its own \
                          module still needs it"
                         name))
          | _ -> None)
        sg.sig_items
  | _ -> []

(* ----- cmt discovery and load-path setup ----- *)

let rec find_cmts_under acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> find_cmts_under acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* All .cmt files under the given files/directories, in sorted order. *)
let find_cmts paths =
  List.sort String.compare
    (List.fold_left
       (fun acc p ->
         if Sys.file_exists p then find_cmts_under acc p
         else failwith (Printf.sprintf "tlblint: no such path: %s" p))
       [] paths)

(* Initialize the compiler load path so Envaux can rebuild the typing
   environments stored in the cmts: the stdlib, any explicit -I dirs, and
   every load-path entry recorded in the cmts themselves.  Relative entries
   are resolved against the recorded build dir *and* every ancestor of the
   cmt file itself — cmt_builddir records the path at build time, which is
   stale whenever the tree has moved (sandboxed builds, CI caches), whereas
   an ancestor of the cmt is the live _build context. *)
let init_load_path ~extra_dirs (cmts : (string * Cmt_format.cmt_infos) list) =
  let tbl = Hashtbl.create 64 in
  let dirs = ref [] in
  let add d =
    if
      (not (Hashtbl.mem tbl d))
      && Sys.file_exists d
      && Sys.is_directory d
    then begin
      Hashtbl.add tbl d ();
      dirs := d :: !dirs
    end
  in
  add Config.standard_library;
  List.iter add extra_dirs;
  List.iter
    (fun (path, (cmt : Cmt_format.cmt_infos)) ->
      let bases = cmt.cmt_builddir :: ancestors [] 8 path in
      List.iter
        (fun d ->
          if Filename.is_relative d then
            List.iter (fun base -> add (Filename.concat base d)) bases
          else add d)
        cmt.cmt_loadpath)
    cmts;
  Load_path.init ~auto_include:Load_path.no_auto_include (List.rev !dirs)

let read_cmts paths =
  List.filter_map
    (fun p ->
      match Cmt_format.read_cmt p with
      | cmt -> Some (p, cmt)
      | exception _ ->
          prerr_endline ("tlblint: warning: unreadable cmt " ^ p);
          None)
    paths

(* Is [p] below a directory named [test] under one of [roots]?  A unit
   there is a test, and a test's use keeps no export alive. *)
let under_test ~roots p =
  let rec below dir =
    let parent = Filename.dirname dir in
    if String.equal parent dir || List.exists (String.equal parent) roots then
      false
    else String.equal (Filename.basename parent) "test" || below parent
  in
  below p

(* Lint the .cmt files under [paths] (files or directories) end to end;
   returns the merged, sorted findings. R5 reads uses from every .cmt under
   each path's parent directory as well, so linting _build/default/lib
   counts the uses in _build/default/bin, bench, examples and the rest —
   but not those in _build/default/test: a value only tests call is dead. *)
let run ?(rules = all_rules) ?(allow = []) ?(extra_dirs = []) paths =
  let cmt_paths = find_cmts paths in
  let cmts = read_cmts cmt_paths in
  init_load_path ~extra_dirs cmts;
  let findings =
    List.concat_map (fun (p, cmt) -> lint_cmt ~rules ~allow ~cmt_path:p cmt) cmts
  in
  let dead =
    if not (List.memq R5 rules) then []
    else begin
      let uses = Hashtbl.create 4096 in
      let roots = List.sort_uniq String.compare (List.map Filename.dirname paths) in
      let counted p = not (under_test ~roots p) in
      let others =
        List.filter
          (fun p -> counted p && not (List.exists (String.equal p) cmt_paths))
          (find_cmts roots)
      in
      List.iter
        (fun (p, cmt) -> if counted p then collect_uses uses cmt)
        (cmts @ read_cmts others);
      List.concat_map (fun (p, _) -> dead_exports ~allow ~uses p) cmts
    end
  in
  List.sort compare_findings (findings @ dead)
