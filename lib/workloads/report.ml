(* Output sink. Tables normally go straight to stdout; a bench task running
   under the parallel runner instead captures its output into a per-domain
   buffer (so concurrent experiments cannot interleave) and the driver
   prints the buffers in experiment order. Domain-local state, not a plain
   ref, because capture must not leak across domains. *)
let sink : Buffer.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let out_string s =
  match !(Domain.DLS.get sink) with
  | Some buf -> Buffer.add_string buf s
  | None -> print_string s

let out_line s =
  out_string s;
  out_string "\n"

let capture f =
  let cell = Domain.DLS.get sink in
  let saved = !cell in
  let buf = Buffer.create 4096 in
  cell := Some buf;
  let v = Fun.protect ~finally:(fun () -> cell := saved) f in
  (Buffer.contents buf, v)

let table ~title ~header rows =
  let all = header :: rows in
  let columns = List.length header in
  let width col =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row col with
        | Some cell -> Stdlib.max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let print_row row =
    let cells =
      List.mapi
        (fun i w ->
          let cell = Option.value (List.nth_opt row i) ~default:"" in
          (* Right-align all but the first column (labels left, data right). *)
          if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
        widths
    in
    out_line ("  " ^ String.concat "  " cells)
  in
  out_string "\n";
  out_line ("== " ^ title ^ " ==");
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let cycles c =
  if Float.abs c >= 1_000_000.0 then Printf.sprintf "%.2fM" (c /. 1_000_000.0)
  else if Float.abs c >= 10_000.0 then Printf.sprintf "%.1fk" (c /. 1_000.0)
  else Printf.sprintf "%.0f" c

let speedup r = Printf.sprintf "%.3fx" r

let reduction ~baseline v =
  if Float.equal baseline 0.0 then "n/a"
  else Printf.sprintf "%.0f%%" ((baseline -. v) /. baseline *. 100.0)

let bar_of ~width ~max value =
  if max <= 0.0 || value < 0.0 then ""
  else begin
    let n = int_of_float (Float.round (value /. max *. float_of_int width)) in
    String.concat "" (List.init (Stdlib.min width n) (fun _ -> "\xe2\x96\x88"))
  end

let bars ~title rows =
  out_string "\n";
  out_line ("-- " ^ title ^ " --");
  let label_width =
    List.fold_left (fun acc (l, _) -> Stdlib.max acc (String.length l)) 0 rows
  in
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 rows in
  List.iter
    (fun (label, value) ->
      out_string
        (Printf.sprintf "  %-*s %8s |%s\n" label_width label (cycles value)
           (bar_of ~width:40 ~max:max_value value)))
    rows

let count n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
