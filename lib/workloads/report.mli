(** Plain-text rendering for the benchmark harness and the CLI. Every
    renderer returns its text: a plan's reduce returns the tables it
    builds, and the caller prints them. *)

(** [table ~title ~header rows] is an aligned table: a blank line, the
    [== title ==] line, the header, a rule, then the rows. The first
    column is left-aligned, the others right-aligned. *)
val table : title:string -> header:string list -> string list list -> string

(** Format a cycle count compactly ("12.3k", "1.20M"). *)
val cycles : float -> string

(** Format a ratio as a speedup ("1.18x"). *)
val speedup : float -> string

(** Format a percentage reduction between a baseline and a value
    ("n/a" when the baseline is 0). *)
val reduction : baseline:float -> float -> string

(** Large counts with thousands grouping ("102,400"). *)
val count : int -> string

(** [bars ~title rows] renders labelled horizontal bars scaled to the
    largest value — the textual rendition of the paper's bar figures. *)
val bars : title:string -> (string * float) list -> string
