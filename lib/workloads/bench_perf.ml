(* BENCH_PERF.json: the one row type, its writer and its reader.

   The reader is a small recursive-descent JSON parser (stdlib only, so
   the gate needs no JSON package) followed by a decoder that accepts
   exactly the shape [to_string] writes. Every deviation is an [Error]:
   a truncated or garbled file must never read as "no rows, nothing to
   gate". *)

type row = {
  family : string;
  key : string;
  values : (string * float option) list;
  memoized : bool;
}

let schema = 8
let row ?(memoized = false) family key values = { family; key; values; memoized }
let int n = Some (float_of_int n)
let value r name = Option.join (List.assoc_opt name r.values)

(* ----- writer ----- *)

(* Shortest %g rendering that reads back to the same float. *)
let number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || Float.equal (float_of_string s) v then s else go (p + 1)
  in
  if Float.is_finite v then go 15 else "null"

let row_json r =
  let value (k, v) =
    Printf.sprintf "\"%s\": %s" (Metrics.json_escape k)
      (match v with None -> "null" | Some v -> number v)
  in
  Printf.sprintf
    "{\"family\": \"%s\", \"key\": \"%s\", \"memoized\": %b, \"values\": {%s}}"
    (Metrics.json_escape r.family) (Metrics.json_escape r.key) r.memoized
    (String.concat ", " (List.map value r.values))

let to_string ~mode rows =
  Printf.sprintf "{\n  \"schema\": %d,\n  \"mode\": \"%s\",\n  \"rows\": [\n%s\n  ]\n}\n"
    schema (Metrics.json_escape mode)
    (String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) rows))

(* ----- reader ----- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s and i = ref 0 in
  let bad what = raise (Bad (Printf.sprintf "%s at byte %d" what !i)) in
  let rec peek () =
    if !i >= n then bad "unexpected end of input"
    else if String.contains " \t\r\n" s.[!i] then (incr i; peek ())
    else s.[!i]
  in
  let eat c = if peek () = c then incr i else bad (Printf.sprintf "expected %C" c) in
  let word w v =
    let l = String.length w in
    if !i + l > n then bad "unexpected end of input"
    else if String.equal (String.sub s !i l) w then (i := !i + l; v)
    else bad "invalid literal"
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then bad "unterminated string";
      let c = s.[!i] in
      incr i;
      if c = '"' then Buffer.contents b
      else if c <> '\\' then (Buffer.add_char b c; go ())
      else begin
        if !i >= n then bad "unterminated string";
        let e = s.[!i] in
        incr i;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' -> (
            match
              if !i + 4 <= n then int_of_string_opt ("0x" ^ String.sub s !i 4) else None
            with
            | Some u when Uchar.is_valid u ->
                Buffer.add_utf_8_uchar b (Uchar.of_int u);
                i := !i + 4
            | _ -> bad "invalid \\u escape")
        | _ -> bad "invalid escape");
        go ()
      end
    in
    go ()
  in
  let num () =
    let j = !i in
    while !i < n && String.contains "+-.eE0123456789" s.[!i] do
      incr i
    done;
    match float_of_string_opt (String.sub s j (!i - j)) with
    | Some v when !i > j -> Num v
    | _ -> bad "invalid value"
  in
  let rec value () =
    match peek () with
    | '{' ->
        incr i;
        Obj
          (items '}' (fun () ->
               let k = str () in
               eat ':';
               (k, value ())))
    | '[' ->
        incr i;
        Arr (items ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> num ()
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek () = close then (incr i; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        match peek () with
        | ',' -> incr i; more acc
        | c when c = close -> incr i; List.rev acc
        | _ -> bad (Printf.sprintf "expected ',' or %C" close)
      in
      more []
  in
  let v = value () in
  while !i < n && String.contains " \t\r\n" s.[!i] do
    incr i
  done;
  if !i < n then bad "trailing characters after the document";
  v

let row_of_json idx = function
  | Obj f -> (
      let field k = List.assoc_opt k f in
      match (field "family", field "key", field "memoized", field "values") with
      | Some (Str family), Some (Str key), Some (Bool memoized), Some (Obj vs) ->
          let value = function
            | k, Num v -> (k, Some v)
            | k, Null -> (k, None)
            | k, _ ->
                raise (Bad (Printf.sprintf "row %d: value %S is not a number" idx k))
          in
          { family; key; memoized; values = List.map value vs }
      | _ ->
          raise
            (Bad
               (Printf.sprintf
                  "row %d needs a string family and key, a boolean memoized and a \
                   values object"
                  idx)))
  | _ -> raise (Bad (Printf.sprintf "row %d is not an object" idx))

let of_string s =
  match parse s with
  | exception Bad msg -> Error ("not JSON: " ^ msg)
  | Obj top -> (
      let ours v = Float.equal v (float_of_int schema) in
      match (List.assoc_opt "schema" top, List.assoc_opt "rows" top) with
      | None, _ -> Error "no \"schema\" field"
      | Some (Num v), Some (Arr rows) when ours v -> (
          try Ok (List.mapi row_of_json rows) with Bad msg -> Error msg)
      | Some (Num v), _ when ours v -> Error "no \"rows\" array"
      | Some (Num v), _ ->
          Error (Printf.sprintf "schema %s; this reader reads only %d" (number v) schema)
      | Some _, _ -> Error "\"schema\" is not a number")
  | _ -> Error "the document is not a JSON object"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg
