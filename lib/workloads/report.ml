(* Plain-text rendering. Every renderer returns its text; a plan's reduce
   returns the concatenation and the harness prints it, so nothing here
   writes to a channel. *)

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
  let b = Buffer.create 1024 in
  let add_row row =
    let cells =
      List.mapi
        (fun i w ->
          let cell = Option.value (List.nth_opt row i) ~default:"" in
          (* Right-align all but the first column (labels left, data right). *)
          if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
        widths
    in
    Buffer.add_string b ("  " ^ String.concat "  " cells ^ "\n")
  in
  Buffer.add_string b ("\n== " ^ title ^ " ==\n");
  add_row header;
  add_row (List.map (fun w -> String.make w '-') widths);
  List.iter add_row rows;
  Buffer.contents b

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
  let label_width =
    List.fold_left (fun acc (l, _) -> Stdlib.max acc (String.length l)) 0 rows
  in
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 rows in
  String.concat ""
    (("\n-- " ^ title ^ " --\n")
    :: List.map
         (fun (label, value) ->
           Printf.sprintf "  %-*s %8s |%s\n" label_width label (cycles value)
             (bar_of ~width:40 ~max:max_value value))
         rows)

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
